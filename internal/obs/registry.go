package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// SchemaVersion identifies the telemetry JSON layout.
const SchemaVersion = "g2g.telemetry/1"

// Metrics is the root telemetry registry of a run, grouped by subsystem.
// Every Note* entry point on the sub-stats is nil-safe, so holding a nil
// *SimStats (etc.) disables recording with a single pointer test and no
// allocation. A single registry may be shared across sequential runs to
// aggregate a whole sweep (cmd/g2gexp does this).
type Metrics struct {
	Sim      SimStats
	Engine   EngineStats
	Protocol ProtocolStats
	Crypto   CryptoStats
	// Spans is the per-region wall/self/count profile fed by the SpanRecorder
	// of each run (and of each runner worker); see span.go.
	Spans SpanStats
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Snapshot freezes the registry into its JSON-serializable form. A nil
// registry snapshots to nil. Snapshot is safe to call concurrently with
// recording; it observes each counter atomically (not the set as a whole).
func (m *Metrics) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	return &Snapshot{
		Schema:   SchemaVersion,
		Sim:      m.Sim.snapshot(),
		Engine:   m.Engine.snapshot(),
		Protocol: m.Protocol.snapshot(),
		Crypto:   m.Crypto.snapshot(),
		Spans:    m.Spans.snapshot(),
	}
}

// --- sim kernel ---

// SimStats instruments the discrete-event kernel.
type SimStats struct {
	EventsScheduled Counter
	EventsFired     Counter
	EventsCancelled Counter
	// QueueHighWater is the deepest the event queue ever got.
	QueueHighWater MaxGauge
	// simNow mirrors the kernel clock (nanoseconds) so concurrent progress
	// reporters can read the current virtual time without touching the
	// single-threaded simulator.
	simNow atomic.Int64
}

// NoteScheduled records one scheduled event and the resulting queue depth.
func (s *SimStats) NoteScheduled(queueDepth int) {
	if s == nil {
		return
	}
	s.EventsScheduled.Inc()
	s.QueueHighWater.Observe(int64(queueDepth))
}

// NoteFired records one executed event at virtual instant at.
func (s *SimStats) NoteFired(at time.Duration) {
	if s == nil {
		return
	}
	s.EventsFired.Inc()
	s.simNow.Store(int64(at))
}

// NoteCancelled records one cancelled event.
func (s *SimStats) NoteCancelled() {
	if s == nil {
		return
	}
	s.EventsCancelled.Inc()
}

// SimNow returns the virtual time of the most recently fired event. It is
// safe to call from other goroutines while the simulation runs.
func (s *SimStats) SimNow() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.simNow.Load())
}

// SimSnapshot is the frozen form of SimStats.
type SimSnapshot struct {
	EventsScheduled int64 `json:"events_scheduled"`
	EventsFired     int64 `json:"events_fired"`
	EventsCancelled int64 `json:"events_cancelled"`
	QueueHighWater  int64 `json:"queue_high_water"`
	// SimEndNS is the virtual time of the last fired event, in nanoseconds.
	SimEndNS int64 `json:"sim_end_ns"`
}

func (s *SimStats) snapshot() SimSnapshot {
	return SimSnapshot{
		EventsScheduled: s.EventsScheduled.Load(),
		EventsFired:     s.EventsFired.Load(),
		EventsCancelled: s.EventsCancelled.Load(),
		QueueHighWater:  s.QueueHighWater.Load(),
		SimEndNS:        s.simNow.Load(),
	}
}

// --- engine ---

// Phase names one wall-clock segment of a run.
type Phase int

// The run phases: trace warm-up (quality bookkeeping only), the experiment
// window (traffic flows), and the drain past the window end (pending G2G
// test phases resolve).
const (
	PhaseWarmup Phase = iota
	PhaseWindow
	PhaseDrain
	numPhases
)

// String returns the phase's canonical name.
func (p Phase) String() string {
	switch p {
	case PhaseWarmup:
		return "warmup"
	case PhaseWindow:
		return "window"
	case PhaseDrain:
		return "drain"
	default:
		return "phase(" + strconv.Itoa(int(p)) + ")"
	}
}

// EngineStats instruments the trace-replay engine.
type EngineStats struct {
	// ContactsReplayed counts contact-start events executed.
	ContactsReplayed Counter
	// SessionsRun counts pairwise protocol sessions; SessionsMoved counts
	// the subset that transferred message custody.
	SessionsRun   Counter
	SessionsMoved Counter
	// Cascades counts intra-contact cascade sweeps.
	Cascades Counter
	// Message lifecycle counters, fed by the protocol observer.
	MessagesGenerated Counter
	MessagesRelayed   Counter
	MessagesDelivered Counter
	// PoMBroadcasts counts proof-of-misbehavior network floods.
	PoMBroadcasts Counter
	// phaseNS accumulates wall time per phase (adds, so a shared registry
	// aggregates across a sweep's runs).
	phaseNS [numPhases]atomic.Int64
	// curPhase mirrors the phase the run is currently executing (stored as
	// phase+1 so the zero value reads as "no run started"), letting concurrent
	// readers — the live inspector's progress stream — label progress without
	// touching the single-threaded engine.
	curPhase atomic.Int32
}

// NoteContact records one replayed contact start.
func (e *EngineStats) NoteContact() {
	if e == nil {
		return
	}
	e.ContactsReplayed.Inc()
}

// NoteSession records one pairwise session; moved reports whether custody
// was transferred.
func (e *EngineStats) NoteSession(moved bool) {
	if e == nil {
		return
	}
	e.SessionsRun.Inc()
	if moved {
		e.SessionsMoved.Inc()
	}
}

// NoteCascade records one intra-contact cascade sweep.
func (e *EngineStats) NoteCascade() {
	if e == nil {
		return
	}
	e.Cascades.Inc()
}

// NoteGenerated, NoteRelayed, NoteDelivered record message lifecycle events.
func (e *EngineStats) NoteGenerated() {
	if e == nil {
		return
	}
	e.MessagesGenerated.Inc()
}

// NoteRelayed records one custody handoff.
func (e *EngineStats) NoteRelayed() {
	if e == nil {
		return
	}
	e.MessagesRelayed.Inc()
}

// NoteDelivered records one first delivery.
func (e *EngineStats) NoteDelivered() {
	if e == nil {
		return
	}
	e.MessagesDelivered.Inc()
}

// NoteBroadcast records one PoM broadcast.
func (e *EngineStats) NoteBroadcast() {
	if e == nil {
		return
	}
	e.PoMBroadcasts.Inc()
}

// NotePhase adds wall-clock time to one phase's total.
func (e *EngineStats) NotePhase(p Phase, d time.Duration) {
	if e == nil || p < 0 || p >= numPhases {
		return
	}
	e.phaseNS[p].Add(int64(d))
}

// EnterPhase marks p as the phase the run is currently in.
func (e *EngineStats) EnterPhase(p Phase) {
	if e == nil || p < 0 || p >= numPhases {
		return
	}
	e.curPhase.Store(int32(p) + 1)
}

// CurrentPhase returns the phase the run is in and whether any run has
// entered a phase yet. It is safe to call from other goroutines.
func (e *EngineStats) CurrentPhase() (Phase, bool) {
	if e == nil {
		return 0, false
	}
	v := e.curPhase.Load()
	if v == 0 {
		return 0, false
	}
	return Phase(v - 1), true
}

// PhaseWall returns the accumulated wall time of one phase.
func (e *EngineStats) PhaseWall(p Phase) time.Duration {
	if e == nil || p < 0 || p >= numPhases {
		return 0
	}
	return time.Duration(e.phaseNS[p].Load())
}

// PhaseSnapshot is one phase's frozen wall-clock accounting.
type PhaseSnapshot struct {
	WallNS int64 `json:"wall_ns"`
}

// EngineSnapshot is the frozen form of EngineStats.
type EngineSnapshot struct {
	ContactsReplayed  int64 `json:"contacts_replayed"`
	SessionsRun       int64 `json:"sessions_run"`
	SessionsMoved     int64 `json:"sessions_moved"`
	Cascades          int64 `json:"cascades"`
	MessagesGenerated int64 `json:"messages_generated"`
	MessagesRelayed   int64 `json:"messages_relayed"`
	MessagesDelivered int64 `json:"messages_delivered"`
	// MessagesUndelivered is generated minus delivered: the messages that
	// expired (or were dropped by deviants) without reaching their
	// destination.
	MessagesUndelivered int64 `json:"messages_undelivered"`
	PoMBroadcasts       int64 `json:"pom_broadcasts"`
	Phases              struct {
		Warmup PhaseSnapshot `json:"warmup"`
		Window PhaseSnapshot `json:"window"`
		Drain  PhaseSnapshot `json:"drain"`
	} `json:"phases"`
	WallTotalNS int64 `json:"wall_total_ns"`
}

func (e *EngineStats) snapshot() EngineSnapshot {
	s := EngineSnapshot{
		ContactsReplayed:  e.ContactsReplayed.Load(),
		SessionsRun:       e.SessionsRun.Load(),
		SessionsMoved:     e.SessionsMoved.Load(),
		Cascades:          e.Cascades.Load(),
		MessagesGenerated: e.MessagesGenerated.Load(),
		MessagesRelayed:   e.MessagesRelayed.Load(),
		MessagesDelivered: e.MessagesDelivered.Load(),
		PoMBroadcasts:     e.PoMBroadcasts.Load(),
	}
	s.MessagesUndelivered = s.MessagesGenerated - s.MessagesDelivered
	s.Phases.Warmup.WallNS = e.phaseNS[PhaseWarmup].Load()
	s.Phases.Window.WallNS = e.phaseNS[PhaseWindow].Load()
	s.Phases.Drain.WallNS = e.phaseNS[PhaseDrain].Load()
	s.WallTotalNS = s.Phases.Warmup.WallNS + s.Phases.Window.WallNS + s.Phases.Drain.WallNS
	return s
}

// --- protocol ---

// maxWireKinds bounds the per-kind wire-message accounting; wire.Kind is a
// uint8 with currently 12 kinds, so 32 leaves ample headroom.
const maxWireKinds = 32

// ProtocolStats instruments the protocol layer: test phases, quality-table
// bookkeeping, and signed wire traffic per message kind.
type ProtocolStats struct {
	TestsStarted Counter
	TestsPassed  Counter
	TestsFailed  Counter
	// QualityUpdates counts delegation quality-table observations.
	QualityUpdates Counter
	// WireSizes is the size distribution of signed control messages.
	WireSizes Histogram

	wireCount [maxWireKinds]Counter
	wireBytes [maxWireKinds]Counter
	// kindNamer translates a wire kind byte to its protocol name for
	// snapshots (the obs package cannot import the wire package). It is
	// stored atomically because a registry shared across a parallel sweep
	// has every run install the namer during setup.
	kindNamer atomic.Pointer[func(uint8) string]
}

// SetKindNamer installs the wire-kind naming function used by snapshots.
// It is safe to call concurrently (every run of a shared-registry sweep
// installs it); nil detaches, falling back to "kind_N" names.
func (p *ProtocolStats) SetKindNamer(fn func(uint8) string) {
	if p == nil {
		return
	}
	if fn == nil {
		p.kindNamer.Store(nil)
		return
	}
	p.kindNamer.Store(&fn)
}

// KindNamer returns the installed naming function, or nil.
func (p *ProtocolStats) KindNamer() func(uint8) string {
	if p == nil {
		return nil
	}
	if fn := p.kindNamer.Load(); fn != nil {
		return *fn
	}
	return nil
}

// NoteTestStarted records one issued test-phase challenge.
func (p *ProtocolStats) NoteTestStarted() {
	if p == nil {
		return
	}
	p.TestsStarted.Inc()
}

// NoteTested records one completed test-phase challenge.
func (p *ProtocolStats) NoteTested(passed bool) {
	if p == nil {
		return
	}
	if passed {
		p.TestsPassed.Inc()
	} else {
		p.TestsFailed.Inc()
	}
}

// NoteQualityUpdate records one quality-table observation.
func (p *ProtocolStats) NoteQualityUpdate() {
	if p == nil {
		return
	}
	p.QualityUpdates.Inc()
}

// NoteWire records one signed control message of the given kind and encoded
// size in bytes.
func (p *ProtocolStats) NoteWire(kind uint8, size int) {
	if p == nil {
		return
	}
	if int(kind) < maxWireKinds {
		p.wireCount[kind].Inc()
		p.wireBytes[kind].Add(int64(size))
	}
	p.WireSizes.Observe(int64(size))
}

// WireStat is the per-kind wire traffic of a snapshot.
type WireStat struct {
	Count int64 `json:"count"`
	Bytes int64 `json:"bytes"`
}

// ProtocolSnapshot is the frozen form of ProtocolStats.
type ProtocolSnapshot struct {
	TestsStarted   int64 `json:"tests_started"`
	TestsPassed    int64 `json:"tests_passed"`
	TestsFailed    int64 `json:"tests_failed"`
	QualityUpdates int64 `json:"quality_updates"`
	// Wire maps the protocol's message names (RELAY, POR, ...) to their
	// counts and bytes. JSON object keys marshal sorted, so output is
	// deterministic.
	Wire           map[string]WireStat `json:"wire,omitempty"`
	WireBytesTotal int64               `json:"wire_bytes_total"`
	WireSizes      HistogramSnapshot   `json:"wire_size_hist"`
}

func (p *ProtocolStats) snapshot() ProtocolSnapshot {
	s := ProtocolSnapshot{
		TestsStarted:   p.TestsStarted.Load(),
		TestsPassed:    p.TestsPassed.Load(),
		TestsFailed:    p.TestsFailed.Load(),
		QualityUpdates: p.QualityUpdates.Load(),
		WireSizes:      p.WireSizes.Snapshot(),
	}
	for k := 0; k < maxWireKinds; k++ {
		n := p.wireCount[k].Load()
		if n == 0 {
			continue
		}
		name := "kind_" + strconv.Itoa(k)
		if namer := p.KindNamer(); namer != nil {
			name = namer(uint8(k))
		}
		if s.Wire == nil {
			s.Wire = make(map[string]WireStat)
		}
		b := p.wireBytes[k].Load()
		s.Wire[name] = WireStat{Count: n, Bytes: b}
		s.WireBytesTotal += b
	}
	return s
}

// --- crypto ---

// CryptoStats instruments the crypto substrate: operation counts and wall
// time per primitive, split by provider.
type CryptoStats struct {
	Sign      TimerStat
	Verify    TimerStat
	Seal      TimerStat
	Open      TimerStat
	HeavyHMAC TimerStat
	// HeavyHMACIterations accumulates the iterations of all storage proofs
	// computed or verified.
	HeavyHMACIterations Counter

	provider atomic.Pointer[string]

	// noTiming suppresses the per-operation clock reads: counts still
	// accumulate (the invariant auditor reconciles them) but wall durations
	// are recorded as zero. Engines disable timing when no telemetry
	// consumer is attached — two time.Now calls per primitive are pure
	// overhead on a run nobody profiles. Written once before the run starts,
	// read-only afterwards, so concurrent readers need no atomics.
	noTiming bool
}

// DisableTiming turns off wall-time measurement for subsequent operations;
// counts are unaffected. Must be called before the stats see concurrent use.
func (c *CryptoStats) DisableTiming() {
	if c == nil {
		return
	}
	c.noTiming = true
}

// Timed reports whether operation wall times should be measured. The nil
// stats sink is untimed.
func (c *CryptoStats) Timed() bool { return c != nil && !c.noTiming }

// SetProvider records which provider ("fast" or "real") the stats describe.
func (c *CryptoStats) SetProvider(name string) {
	if c == nil {
		return
	}
	c.provider.Store(&name)
}

// Provider returns the recorded provider name.
func (c *CryptoStats) Provider() string {
	if c == nil {
		return ""
	}
	if p := c.provider.Load(); p != nil {
		return *p
	}
	return ""
}

// NoteSign records one signature operation.
func (c *CryptoStats) NoteSign(d time.Duration) {
	if c == nil {
		return
	}
	c.Sign.Note(d)
}

// NoteVerify records one verification.
func (c *CryptoStats) NoteVerify(d time.Duration) {
	if c == nil {
		return
	}
	c.Verify.Note(d)
}

// NoteSeal records one sealing operation.
func (c *CryptoStats) NoteSeal(d time.Duration) {
	if c == nil {
		return
	}
	c.Seal.Note(d)
}

// NoteOpen records one unsealing operation.
func (c *CryptoStats) NoteOpen(d time.Duration) {
	if c == nil {
		return
	}
	c.Open.Note(d)
}

// NoteHeavyHMAC records one storage-proof computation of the given iteration
// count.
func (c *CryptoStats) NoteHeavyHMAC(d time.Duration, iterations int) {
	if c == nil {
		return
	}
	c.HeavyHMAC.Note(d)
	c.HeavyHMACIterations.Add(int64(iterations))
}

// PoolSnapshot is the accounting of a batched storage-proof executor. No
// executor exists any more, so it is never set; it stays declared because
// the benchmark's per-layer report (perfbench/layers.go) still reads
// CryptoSnapshot.Pool and reports its ratio as not measured.
type PoolSnapshot struct {
	Flushes int64 `json:"flushes"`
	Jobs    int64 `json:"jobs"`
}

// CryptoSnapshot is the frozen form of CryptoStats.
type CryptoSnapshot struct {
	Provider            string     `json:"provider"`
	Sign                OpSnapshot `json:"sign"`
	Verify              OpSnapshot `json:"verify"`
	Seal                OpSnapshot `json:"seal"`
	Open                OpSnapshot `json:"open"`
	HeavyHMAC           OpSnapshot `json:"heavy_hmac"`
	HeavyHMACIterations int64      `json:"heavy_hmac_iterations"`
	// Pool is always nil: no run batches its storage proofs. Kept only
	// because perfbench/layers.go compiles against it (see PoolSnapshot).
	Pool *PoolSnapshot `json:"pool,omitempty"`
}

func (c *CryptoStats) snapshot() CryptoSnapshot {
	return CryptoSnapshot{
		Provider:            c.Provider(),
		Sign:                c.Sign.Snapshot(),
		Verify:              c.Verify.Snapshot(),
		Seal:                c.Seal.Snapshot(),
		Open:                c.Open.Snapshot(),
		HeavyHMAC:           c.HeavyHMAC.Snapshot(),
		HeavyHMACIterations: c.HeavyHMACIterations.Load(),
	}
}

// --- snapshot root ---

// Snapshot is the JSON-serializable freeze of a Metrics registry: the run
// report `g2gsim -telemetry` and `g2gexp -telemetry` write.
type Snapshot struct {
	Schema   string           `json:"schema"`
	Sim      SimSnapshot      `json:"sim"`
	Engine   EngineSnapshot   `json:"engine"`
	Protocol ProtocolSnapshot `json:"protocol"`
	Crypto   CryptoSnapshot   `json:"crypto"`
	// Spans is the per-region profile (span.go), present when any region was
	// recorded. The field is additive: schema "g2g.telemetry/1" consumers that
	// predate it keep decoding.
	Spans []SpanSnapshot `json:"spans,omitempty"`
	// TraceTail optionally carries the last records of a ring sink.
	TraceTail []Record `json:"trace_tail,omitempty"`
}

// EventsPerSec derives the kernel's event throughput from the snapshot:
// events fired divided by total wall time. Zero wall time reports 0.
func (s *Snapshot) EventsPerSec() float64 {
	if s == nil || s.Engine.WallTotalNS <= 0 {
		return 0
	}
	return float64(s.Sim.EventsFired) / (float64(s.Engine.WallTotalNS) / float64(time.Second))
}
