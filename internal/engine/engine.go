// Package engine drives forwarding protocols over contact traces: it replays
// contacts through the discrete-event kernel, generates the paper's Poisson
// workload, runs pairwise protocol sessions (with intra-contact cascades, so
// a message can cross several hops while the radios are still in range),
// distributes proof-of-misbehavior broadcasts, and aggregates metrics.
//
// The experiment methodology follows Section V-B: a window of the trace is
// isolated; messages are generated with uniform random sources and
// destinations from a Poisson process, with no generation in the final hour
// of the window; buffers are infinite; the TTL (Δ1) is the protocol
// parameter. A warm-up period before the window feeds encounters to the
// delegation quality tables without traffic, standing in for the history
// the paper's nodes accumulated before each isolated period, and the run
// continues past the window end long enough for the pending G2G test phases
// to resolve (detection times are reported relative to the TTL expiry).
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"give2get/internal/g2gcrypto"
	"give2get/internal/invariant"
	"give2get/internal/kclique"
	"give2get/internal/metrics"
	"give2get/internal/mobility"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// CryptoProvider selects the crypto substrate for a run.
type CryptoProvider string

// Available crypto providers.
const (
	// CryptoFast simulates signatures with keyed HMACs: the default for
	// large parameter sweeps.
	CryptoFast CryptoProvider = "fast"
	// CryptoReal uses Ed25519/X25519/AES-GCM end to end.
	CryptoReal CryptoProvider = "real"
)

// Config fully describes one simulation run.
type Config struct {
	// Trace is the full contact source; the experiment runs on a window of
	// it (all times below are absolute trace times). An in-memory
	// *trace.Trace works as before; a streaming source (e.g.
	// trace.OpenBinary) lets the engine replay traces that never fit in
	// RAM — the contact scheduler pulls from a cursor either way.
	Trace trace.Source
	// Protocol selects the forwarding protocol all nodes run.
	Protocol protocol.Kind
	// Params are the protocol constants (Δ1, Δ2, fan-out, ...).
	Params protocol.Params
	// Seed makes the whole run reproducible.
	Seed int64
	// Crypto selects the provider; empty means CryptoFast.
	Crypto CryptoProvider

	// WindowFrom/WindowTo delimit the experiment window.
	WindowFrom, WindowTo sim.Time
	// Warmup is how much trace before the window feeds quality tables.
	Warmup sim.Time
	// RunExtra extends the simulation beyond the window end so pending G2G
	// test phases can complete; the paper's Δ2 is the natural value.
	RunExtra sim.Time

	// MessageInterval is the mean Poisson inter-generation time (the paper
	// uses one message per 4 seconds).
	MessageInterval sim.Time
	// GenerationQuiet suppresses generation during the final part of the
	// window to avoid end effects (the paper uses one hour).
	GenerationQuiet sim.Time
	// PayloadBytes sizes the message bodies (default 64).
	PayloadBytes int
	// EventLog, when non-nil, receives one JSON line per protocol event
	// (generate/replicate/deliver/test/detect) for debugging and offline
	// analysis. Metrics are unaffected.
	//
	// Deprecated: EventLog is the pre-telemetry interface, kept for existing
	// callers; it is adapted onto the trace layer with the original output
	// format preserved byte for byte. New code should set TraceSink.
	EventLog io.Writer
	// TraceSink, when non-nil, receives the run's structured trace records
	// (leveled, timestamped in sim and wall time). It composes with EventLog.
	TraceSink obs.TraceSink
	// Telemetry, when non-nil, is the registry the run records its counters
	// and timings into; sharing one registry across runs aggregates a whole
	// sweep. When nil the engine uses a private registry, so Result.Telemetry
	// is always populated.
	Telemetry *obs.Metrics
	// Audit, when non-nil, attaches the invariant auditor to the run: every
	// protocol event is checked against a shadow model online and the
	// reconciled report lands in Result.Audit. Violations never abort the
	// run — callers decide what a failed audit means (see
	// runner.Options.StrictAudit).
	Audit *invariant.Options
	// FlightRecorder sizes the bounded ring buffer of recent trace records
	// kept for post-mortems (Result.FlightRecords). 0 means auto: on (64
	// records) when an auditor is attached, off otherwise; negative disables
	// explicitly. The recorder is observation-only — it never changes the
	// run, its trace output, or its audit digest.
	FlightRecorder int
	// Progress, when non-nil, receives periodic one-line progress reports
	// every ProgressEvery of wall time (default 10s) while the run executes.
	Progress io.Writer
	// ProgressEvery is the wall-clock period of progress reports.
	ProgressEvery time.Duration
	// Checkpoint configures crash-safe run snapshots: a versioned,
	// checksummed file written atomically at Every intervals of virtual
	// time (and on graceful shutdown) that Resume can continue from with a
	// byte-identical audit digest. Requires the deterministic CryptoFast
	// provider.
	Checkpoint CheckpointConfig
	// Context, when non-nil, allows graceful cancellation: once it is done,
	// the engine finishes the instant in flight, flushes a final checkpoint
	// (when Checkpoint.Path is set), and returns ErrInterrupted.
	Context context.Context

	// stopAt, when positive, schedules a graceful stop at an exact virtual
	// instant — the deterministic stand-in for a mid-run kill that the
	// in-package resume tests use. Not reachable from outside the package.
	stopAt sim.Time

	// Deviants lists the nodes that deviate, all with the same deviation.
	Deviants []trace.NodeID
	// Deviation is the deviants' strategy.
	Deviation protocol.Deviation
	// OnlyOutsiders restricts the deviation to other communities
	// ("selfishness with outsiders").
	OnlyOutsiders bool
	// Communities overrides k-clique detection (mostly for tests); when nil
	// and OnlyOutsiders is set, communities are detected on the trace.
	Communities *kclique.Communities

	// legacyScheduling pre-materializes every contact and workload event as
	// a closure before Run, the strategy the engine used before streaming
	// scheduling. It exists only so in-package tests can differentially
	// verify that streaming reproduces the exact same event order (identical
	// audit digests); it is not reachable from outside the package.
	legacyScheduling bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Trace == nil:
		return errors.New("engine: nil trace")
	case c.Trace.Nodes() < 2:
		return errors.New("engine: need at least two nodes")
	case c.WindowTo <= c.WindowFrom:
		return fmt.Errorf("engine: empty window [%v,%v)", c.WindowFrom, c.WindowTo)
	case c.MessageInterval <= 0:
		return errors.New("engine: message interval must be positive")
	case c.GenerationQuiet < 0 || c.GenerationQuiet >= c.WindowTo-c.WindowFrom:
		return errors.New("engine: generation quiet period must fit inside the window")
	case c.Warmup < 0 || c.RunExtra < 0:
		return errors.New("engine: negative warmup or run-extra")
	case c.PayloadBytes < 0:
		return errors.New("engine: negative payload size")
	case c.Checkpoint.Every < 0:
		return errors.New("engine: negative checkpoint interval")
	case c.Checkpoint.Every > 0 && c.Checkpoint.Path == "":
		return errors.New("engine: checkpoint interval set without a checkpoint path")
	case c.Checkpoint.Path != "" && c.Crypto == CryptoReal:
		return errors.New("engine: checkpointing requires the deterministic fast crypto provider")
	case c.Checkpoint.Path != "" && c.legacyScheduling:
		return errors.New("engine: checkpointing requires streaming scheduling")
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	for _, d := range c.Deviants {
		if int(d) < 0 || int(d) >= c.Trace.Nodes() {
			return fmt.Errorf("engine: deviant %d outside population", d)
		}
	}
	return nil
}

// Result is everything a run produced.
type Result struct {
	Summary   metrics.Summary
	Detection metrics.DetectionSummary
	// Collector exposes the raw event aggregates.
	Collector *metrics.Collector
	// Communities is non-nil when community detection ran.
	Communities *kclique.Communities
	// Usage holds each node's resource accounting (indexed by node id):
	// the energy/memory inputs of the paper's payoff function.
	Usage []protocol.Usage
	// EndedAt is the virtual time the simulation settled.
	EndedAt sim.Time
	// Telemetry is the run report: sim-kernel, engine, protocol, and crypto
	// counters plus per-phase wall timings. Always non-nil.
	Telemetry *obs.Snapshot
	// Audit is the invariant auditor's report; non-nil exactly when
	// Config.Audit was set. A report with violations does not make the run
	// fail here — see Report.Err for the strict form.
	Audit *invariant.Report
	// FlightRecords is the flight recorder's tail — the run's most recent
	// trace records, oldest first — when Config.FlightRecorder enabled it;
	// nil otherwise. The runner dumps it when a strict audit fails (see
	// obs.WriteFlightDump).
	FlightRecords []obs.Record
}

// DefaultWorkload fills in the paper's standard workload settings for a
// 3-hour window starting at `from`.
func DefaultWorkload(cfg *Config, from sim.Time) {
	cfg.WindowFrom = from
	cfg.WindowTo = from + 3*sim.Hour
	cfg.MessageInterval = 4 * sim.Second
	cfg.GenerationQuiet = sim.Hour
	cfg.Warmup = 12 * sim.Hour
	cfg.RunExtra = cfg.Params.Delta2
}

// Run executes the configured simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.run()
}

type engine struct {
	cfg       Config
	sys       g2gcrypto.System
	env       *protocol.Env
	collector *metrics.Collector
	metrics   *obs.Metrics
	auditor   *invariant.Auditor
	spans     *obs.SpanRecorder
	flight    *obs.RingSink
	sink      obs.TraceSink
	nodes     []protocol.Node
	comms     *kclique.Communities

	// active tracks currently overlapping contacts per pair.
	active map[trace.PairKey]int
	// neighbors caches each node's current radio neighborhood as sorted
	// slices: O(log n) membership, in-place insert/remove, and — unlike the
	// map+sort it replaced — allocation-free in-order iteration during
	// cascades.
	neighbors [][]trace.NodeID
	// cascadeBuf is the reusable BFS queue for cascadeFrom.
	cascadeBuf []trace.NodeID

	// cursor streams the trace's sorted contacts; the scheduler keeps at
	// most one un-fired start event (pending) plus the active ends in the
	// queue, so memory stays O(active contacts) even for on-disk sources.
	cursor trace.Cursor
	// cursorIdx counts every contact the cursor has yielded (scheduled or
	// skipped); it is the same index a materialized slice would have, so
	// the per-contact priority bands — and therefore same-instant event
	// order and the audit digest — are identical across source kinds.
	cursorIdx int
	// pending is the contact whose start event is currently enqueued; the
	// chained scheduler guarantees there is at most one.
	pending trace.Contact
	// cursorErr records a cursor read failure; the scheduler stops pulling
	// and run() surfaces it once the kernel drains.
	cursorErr error
	// gens is the pre-drawn Poisson workload (drawing everything up front
	// preserves the seeded RNG draw order the closures used to lock in).
	gens []workloadGen

	workloadRNG *sim.RNG
	startAt     sim.Time
	endAt       sim.Time

	// wallAtWindowFrom/To capture the wall clock as the run crosses the
	// window boundaries, for per-phase wall attribution.
	wallAtWindowFrom time.Time
	wallAtWindowTo   time.Time

	// cancelled is set by the context watcher goroutine; the event loop
	// turns it into a control-priority stop event at the current instant,
	// so the shutdown lands on a checkpointable barrier.
	cancelled     atomic.Bool
	stopScheduled bool
	// stopErr records why the kernel was stopped early (interruption or a
	// failed checkpoint flush); finishRun surfaces it.
	stopErr error
}

// workloadGen is one pre-drawn message generation.
type workloadGen struct {
	at       sim.Time
	src, dst trace.NodeID
	body     []byte
}

// Typed event opcodes dispatched by (*engine).HandleEvent.
const (
	opContactStart = iota + 1
	opContactEnd
	opWorkloadGen
	opControl
)

// Same-instant priority bands. Contact events use 2*index (start) and
// 2*index+1 (end), so lazily streamed contacts fire in the exact order the
// old pre-scheduled closures did; the workload band sits above every
// possible contact priority and below sim.PriNormal (probes, memory ticks),
// again matching the old schedule-order-derived sequence.
const priWorkloadBase int64 = 1 << 41

func newEngine(cfg Config) (*engine, error) {
	if cfg.PayloadBytes == 0 {
		cfg.PayloadBytes = 64
	}
	population := cfg.Trace.Nodes()

	var sys g2gcrypto.System
	var err error
	switch cfg.Crypto {
	case CryptoReal:
		sys, err = g2gcrypto.NewReal(population, nil)
	case CryptoFast, "":
		sys, err = g2gcrypto.NewFast(population, cfg.Seed)
	default:
		return nil, fmt.Errorf("engine: unknown crypto provider %q", cfg.Crypto)
	}
	if err != nil {
		return nil, err
	}

	// Without an attached telemetry registry the run keeps a private one so
	// operation *counts* still accumulate (the auditor reconciles them), but
	// wall-clock instrumentation — per-primitive timers and the span
	// recorder — is disabled: nobody reads those durations, and the clock
	// reads cost real time on crypto-dense runs.
	m := cfg.Telemetry
	var spans *obs.SpanRecorder
	if m == nil {
		m = obs.NewMetrics()
		m.Crypto.DisableTiming()
	} else {
		spans = obs.NewSpanRecorder(&m.Spans)
	}
	sys = g2gcrypto.Instrument(sys, &m.Crypto)

	// The flight recorder rides the trace-sink chain: a bounded ring of the
	// most recent records, defaulted on for audited runs so a violation can
	// dump its immediate past. The legacy EventLog sink filters run-milestone
	// records, so its output stays byte-identical either way.
	var flight *obs.RingSink
	flightCap := cfg.FlightRecorder
	if flightCap == 0 && cfg.Audit != nil {
		flightCap = 64
	}
	if flightCap > 0 {
		flight = obs.NewRingSink(flightCap, obs.LevelDebug)
	}
	sink := cfg.TraceSink
	if cfg.EventLog != nil {
		sink = obs.Multi(sink, NewLegacyEventSink(cfg.EventLog))
	}
	if flight != nil {
		sink = obs.Multi(sink, flight)
	}
	collector := metrics.NewCollector()
	observer := &runObserver{inner: collector, eng: &m.Engine, sink: sink, spans: spans}
	var auditor *invariant.Auditor
	if cfg.Audit != nil {
		groundTruth, groundDeviation := cfg.Deviants, cfg.Deviation
		if cfg.Audit.AssumeHonest {
			// Audit against an empty deviant set: real detections become
			// honest-run violations (see invariant.Options.AssumeHonest).
			groundTruth, groundDeviation = nil, protocol.Honest
		}
		auditor = invariant.New(invariant.Config{
			Options:         *cfg.Audit,
			Sys:             sys,
			Params:          cfg.Params,
			Population:      population,
			Deviants:        groundTruth,
			Deviation:       groundDeviation,
			G2G:             cfg.Protocol.IsG2G(),
			SharedTelemetry: cfg.Telemetry != nil,
		})
		observer.audit = auditor
	}
	env, err := protocol.NewEnv(sys, cfg.Params, observer,
		sim.StreamFromSeed(cfg.Seed, "protocol"))
	if err != nil {
		return nil, err
	}
	env.SetMetrics(m)
	env.SetSpans(spans)

	e := &engine{
		cfg:         cfg,
		sys:         sys,
		env:         env,
		collector:   collector,
		metrics:     m,
		auditor:     auditor,
		spans:       spans,
		flight:      flight,
		sink:        sink,
		active:      make(map[trace.PairKey]int),
		neighbors:   make([][]trace.NodeID, population),
		workloadRNG: sim.StreamFromSeed(cfg.Seed, "workload"),
	}
	env.Broadcast = e.broadcast

	behavior, err := e.buildBehavior()
	if err != nil {
		return nil, err
	}
	deviant := make(map[trace.NodeID]struct{}, len(cfg.Deviants))
	for _, d := range cfg.Deviants {
		deviant[d] = struct{}{}
	}
	for i := 0; i < population; i++ {
		id, err := sys.Identity(trace.NodeID(i))
		if err != nil {
			return nil, err
		}
		b := protocol.Behavior{}
		if _, isDeviant := deviant[trace.NodeID(i)]; isDeviant {
			b = behavior
		}
		node, err := protocol.New(cfg.Protocol, env, id, b)
		if err != nil {
			return nil, err
		}
		e.nodes = append(e.nodes, node)
	}

	e.startAt = cfg.WindowFrom - cfg.Warmup
	if e.startAt < 0 {
		e.startAt = 0
	}
	e.endAt = cfg.WindowTo + cfg.RunExtra
	return e, nil
}

// buildBehavior assembles the deviants' behavior, running community
// detection when the deviation is restricted to outsiders.
func (e *engine) buildBehavior() (protocol.Behavior, error) {
	b := protocol.Behavior{
		Deviation:     e.cfg.Deviation,
		OnlyOutsiders: e.cfg.OnlyOutsiders,
	}
	if !e.cfg.OnlyOutsiders {
		return b, nil
	}
	comms := e.cfg.Communities
	if comms == nil {
		// Community detection needs random access; a streaming source pays
		// one materialization here. Large-trace runs should pre-detect and
		// pass Config.Communities instead.
		tr, err := trace.Materialize(e.cfg.Trace)
		if err != nil {
			return b, fmt.Errorf("engine: community detection: %w", err)
		}
		comms, err = kclique.DetectAuto(tr, kclique.DefaultOptions().K)
		if err != nil {
			return b, fmt.Errorf("engine: community detection: %w", err)
		}
	}
	e.comms = comms
	b.SameCommunity = comms.SameCommunity
	return b, nil
}

func (e *engine) broadcast(pom wire.Signed) {
	e.metrics.Engine.NoteBroadcast()
	for _, n := range e.nodes {
		n.DeliverPoM(pom)
	}
}

func (e *engine) run() (*Result, error) {
	s := sim.New()
	s.SetStats(&e.metrics.Sim)
	defer e.closeCursor() // release the contact stream on every exit path

	e.spans.Enter(obs.SpanSchedule)
	err := e.scheduleAll(s)
	e.spans.Exit()
	if err != nil {
		return nil, err
	}

	// Phase probes capture the wall clock as the virtual clock crosses the
	// window boundaries. They are no-op events scheduled after everything
	// else, so same-instant protocol events keep their order and the run
	// stays deterministic in virtual time. They double as the phase markers
	// for the live inspector and the trace/flight sinks.
	if e.cfg.WindowFrom >= e.startAt {
		if _, err := s.Schedule(e.cfg.WindowFrom, e.probeWindowFrom); err != nil {
			return nil, err
		}
	}
	if _, err := s.Schedule(e.cfg.WindowTo, e.probeWindowTo); err != nil {
		return nil, err
	}

	if e.startAt < e.cfg.WindowFrom {
		e.emitPhase(e.startAt, obs.PhaseWarmup)
	}
	return e.finishRun(s)
}

// probeWindowFrom / probeWindowTo are the phase-boundary probe events. They
// are methods (not run()-local closures) so a resumed run can re-schedule
// whichever ones are still in its future.
func (e *engine) probeWindowFrom(*sim.Simulator) {
	e.wallAtWindowFrom = time.Now()
	e.emitPhase(e.cfg.WindowFrom, obs.PhaseWindow)
}

func (e *engine) probeWindowTo(*sim.Simulator) {
	e.wallAtWindowTo = time.Now()
	e.emitPhase(e.cfg.WindowTo, obs.PhaseDrain)
}

// finishRun drives a fully scheduled kernel to completion and assembles the
// result: the shared tail of a fresh run() and a checkpointed Resume.
func (e *engine) finishRun(s *sim.Simulator) (*Result, error) {
	if e.cfg.Checkpoint.Every > 0 {
		if next := e.nextControlAt(s.Now()); next < e.endAt {
			if err := s.ScheduleEvent(sim.Event{
				At: next, Pri: PriControl, H: e, Op: opControl, P: ctrlPeriodic,
			}); err != nil {
				return nil, err
			}
		}
	}
	if e.cfg.stopAt > 0 {
		if err := s.ScheduleEvent(sim.Event{
			At: e.cfg.stopAt, Pri: PriControl, H: e, Op: opControl, P: ctrlStop,
		}); err != nil {
			return nil, err
		}
	}
	if ctx := e.cfg.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w before start: %v", ErrInterrupted, err)
		}
		watchStop := make(chan struct{})
		watchDone := make(chan struct{})
		go func() {
			defer close(watchDone)
			select {
			case <-ctx.Done():
				e.cancelled.Store(true)
			case <-watchStop:
			}
		}()
		defer func() {
			close(watchStop)
			<-watchDone
		}()
	}

	stopProgress := e.startProgress()
	wallStart := time.Now()
	endedAt, err := s.RunUntil(e.endAt)
	wallEnd := time.Now()
	stopProgress()
	if err != nil {
		return nil, err
	}
	e.closeCursor()
	if e.cursorErr != nil {
		return nil, fmt.Errorf("engine: contact stream: %w", e.cursorErr)
	}
	if e.stopErr != nil {
		return nil, e.stopErr
	}

	// Attribute the wall time to warmup / window / drain. A probe that never
	// fired (empty trace tail, or a resume past its boundary) collapses its
	// phase to zero.
	wallAtWindowFrom, wallAtWindowTo := e.wallAtWindowFrom, e.wallAtWindowTo
	if wallAtWindowFrom.IsZero() {
		wallAtWindowFrom = wallStart
	}
	if wallAtWindowTo.IsZero() {
		wallAtWindowTo = wallEnd
	}
	e.metrics.Engine.NotePhase(obs.PhaseWarmup, wallAtWindowFrom.Sub(wallStart))
	e.metrics.Engine.NotePhase(obs.PhaseWindow, wallAtWindowTo.Sub(wallAtWindowFrom))
	e.metrics.Engine.NotePhase(obs.PhaseDrain, wallEnd.Sub(wallAtWindowTo))

	usage := make([]protocol.Usage, len(e.nodes))
	for i, n := range e.nodes {
		usage[i] = n.UsageSnapshot()
	}
	result := &Result{
		Summary:     e.collector.Summarize(),
		Detection:   e.collector.SummarizeDetection(e.cfg.Deviants),
		Collector:   e.collector,
		Communities: e.comms,
		Usage:       usage,
		EndedAt:     endedAt,
		Telemetry:   e.metrics.Snapshot(),
	}
	if e.flight != nil {
		result.FlightRecords = e.flight.Records()
	}
	if e.auditor != nil {
		fin := invariant.Finalization{
			SummaryGenerated:   result.Summary.Generated,
			SummaryDelivered:   result.Summary.Delivered,
			SummaryReplicas:    result.Summary.TotalReplicas,
			SummaryTestsRun:    result.Summary.TestsRun,
			SummaryTestsFailed: result.Summary.TestsFailed,
			Telemetry:          result.Telemetry,
			Blacklisted: func(holder, accused trace.NodeID) bool {
				return e.nodes[holder].Blacklisted(accused)
			},
			EndedAt: endedAt,
		}
		for _, u := range usage {
			fin.UsageSignatures += u.Signatures
			fin.UsageControlMessages += u.ControlMessages
			fin.UsageHeavyIterations += u.HeavyHMACIterations
		}
		result.Audit = e.auditor.Finalize(fin)
	}
	return result, nil
}

// scheduleAll seeds the run's event queue: the contact cursor, the workload
// cursor, and the memory sampler (or the legacy pre-materialized schedule in
// differential tests).
func (e *engine) scheduleAll(s *sim.Simulator) error {
	if e.cfg.legacyScheduling {
		if err := e.scheduleContactsLegacy(s); err != nil {
			return err
		}
		if err := e.scheduleWorkloadLegacy(s); err != nil {
			return err
		}
	} else {
		if err := e.scheduleContacts(s); err != nil {
			return err
		}
		if err := e.scheduleWorkload(s); err != nil {
			return err
		}
	}
	return e.scheduleMemorySampling(s)
}

// emitPhase marks a phase transition: the current-phase gauge the live
// inspector reads and one "phase" milestone record for the trace and flight
// sinks. The legacy EventLog sink drops milestone records, keeping its output
// byte-identical to the pre-telemetry format.
func (e *engine) emitPhase(at sim.Time, p obs.Phase) {
	e.metrics.Engine.EnterPhase(p)
	if e.sink != nil && e.sink.Enabled(obs.LevelInfo) {
		rec := obs.NewRecord(time.Duration(at), obs.LevelInfo, "phase")
		rec.Wall = time.Now()
		rec.Reason = p.String()
		e.sink.Emit(rec)
	}
}

// startProgress launches the periodic progress reporter; the returned stop
// function blocks until the reporter goroutine exits. The reporter reads
// only atomic counters (and the kernel's mirrored clock), so it never races
// the single-threaded simulation.
func (e *engine) startProgress() (stop func()) {
	if e.cfg.Progress == nil {
		return func() {}
	}
	every := e.cfg.ProgressEvery
	if every <= 0 {
		every = 10 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				m := e.metrics
				fmt.Fprintf(e.cfg.Progress,
					"progress: sim=%v events=%d generated=%d delivered=%d wall=%v\n",
					m.Sim.SimNow().Round(time.Second),
					m.Sim.EventsFired.Load(),
					m.Engine.MessagesGenerated.Load(),
					m.Engine.MessagesDelivered.Load(),
					time.Since(start).Round(time.Second))
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// scheduleMemorySampling integrates each node's buffer occupancy over the
// experiment window ("using one KByte for one second or for one year does
// not have the same cost").
func (e *engine) scheduleMemorySampling(s *sim.Simulator) error {
	_, err := s.Schedule(e.cfg.WindowFrom, e.memoryTick())
	return err
}

// memoryTick builds the self-chaining memory sampler closure. It doubles as
// a cancellation poll point: during the drain the queue may hold nothing but
// ticks, and without the check here a cancelled context would only be
// honored at the natural end of the run.
func (e *engine) memoryTick() func(s *sim.Simulator) {
	interval := protocol.MemorySampleInterval()
	var tick func(s *sim.Simulator)
	tick = func(s *sim.Simulator) {
		e.maybeScheduleStop(s)
		dt := sim.SecondsOf(interval)
		for _, n := range e.nodes {
			n.AddMemorySample(float64(n.MemoryBytes()) * dt)
		}
		if s.Now().Add(interval) < e.endAt {
			if _, err := s.After(interval, tick); err != nil {
				panic(fmt.Sprintf("engine: memory sampler: %v", err))
			}
		}
	}
	return tick
}

// clampContact clips a contact to the run interval [startAt, endAt].
func (e *engine) clampContact(c trace.Contact) (start, end sim.Time) {
	start, end = c.Start, c.End
	if start < e.startAt {
		start = e.startAt
	}
	if end > e.endAt {
		end = e.endAt
	}
	return start, end
}

// scheduleContacts seeds the streaming contact scheduler: a cursor is
// opened on the source and only the first eligible start event enters the
// queue; each start, as it fires, enqueues its own end and the next start
// behind the cursor. The stream is sorted by Start, so clamped starts are
// non-decreasing and a chained start is never in the past; the per-contact
// priority band reproduces the order a full up-front schedule would have
// produced, whether the source is in memory or on disk.
func (e *engine) scheduleContacts(s *sim.Simulator) error {
	cur, err := e.cfg.Trace.Cursor()
	if err != nil {
		return err
	}
	e.cursor = cur
	return e.scheduleNextContactStart(s)
}

// scheduleNextContactStart advances the contact cursor to the next interval
// overlapping the run and enqueues its start event. Contacts whose clamped
// interval is empty (zero-length after clipping) are skipped entirely rather
// than enqueued as no-op start/end pairs. Once the stream is exhausted — or
// sorted Starts prove nothing later can overlap — the cursor is closed.
func (e *engine) scheduleNextContactStart(s *sim.Simulator) error {
	if e.cursor == nil {
		return nil
	}
	for {
		c, ok := e.cursor.Next()
		if !ok {
			err := e.cursor.Err()
			e.closeCursor()
			return err
		}
		i := e.cursorIdx
		e.cursorIdx++
		if c.Start >= e.endAt {
			e.closeCursor()
			return nil // sorted by Start: nothing later can overlap
		}
		start, end := e.clampContact(c)
		if start >= end {
			continue
		}
		e.pending = c
		return s.ScheduleEvent(sim.Event{
			At:  start,
			Pri: 2 * int64(i),
			H:   e,
			Op:  opContactStart,
			P:   uint64(i),
		})
	}
}

// closeCursor releases the contact cursor once, folding a close failure
// into the run's cursor error.
func (e *engine) closeCursor() {
	if e.cursor == nil {
		return
	}
	if err := e.cursor.Close(); err != nil && e.cursorErr == nil {
		e.cursorErr = err
	}
	e.cursor = nil
}

// scheduleWorkload draws the Poisson message generation process up front —
// the draw order is the seeded RNG contract — and streams the resulting
// generations one typed event at a time.
func (e *engine) scheduleWorkload(s *sim.Simulator) error {
	e.drawWorkload()
	return e.scheduleNextGen(s, 0)
}

// drawWorkload consumes the dedicated workload RNG stream into e.gens. The
// draws are a pure function of the seed, so a resumed run redraws the exact
// same generations and simply discards the already-fired prefix.
func (e *engine) drawWorkload() {
	genEnd := e.cfg.WindowTo - e.cfg.GenerationQuiet
	population := e.cfg.Trace.Nodes()
	at := e.cfg.WindowFrom + e.workloadRNG.Exp(e.cfg.MessageInterval)
	for at < genEnd {
		src := trace.NodeID(e.workloadRNG.Intn(population))
		dst := trace.NodeID(e.workloadRNG.Intn(population))
		for dst == src {
			dst = trace.NodeID(e.workloadRNG.Intn(population))
		}
		body := make([]byte, e.cfg.PayloadBytes)
		e.workloadRNG.Bytes(body)
		e.gens = append(e.gens, workloadGen{at: at, src: src, dst: dst, body: body})
		at += e.workloadRNG.Exp(e.cfg.MessageInterval)
	}
}

func (e *engine) scheduleNextGen(s *sim.Simulator, idx int) error {
	if idx >= len(e.gens) {
		return nil
	}
	return s.ScheduleEvent(sim.Event{
		At:  e.gens[idx].at,
		Pri: priWorkloadBase + int64(idx),
		H:   e,
		Op:  opWorkloadGen,
		P:   uint64(idx),
	})
}

// HandleEvent dispatches the engine's typed events. Chained scheduling can
// only fail on a past timestamp, which the cursor invariants rule out, so a
// failure is a programmer error.
func (e *engine) HandleEvent(s *sim.Simulator, ev sim.Event) {
	if ev.Op != opControl {
		e.maybeScheduleStop(s)
	}
	switch ev.Op {
	case opControl:
		e.handleControl(s, ev)
	case opContactStart:
		c := e.pending // copy before the cursor advances over it
		_, end := e.clampContact(c)
		e.spans.Enter(obs.SpanSchedule)
		if err := s.ScheduleEvent(sim.Event{
			At:  end,
			Pri: 2*int64(ev.P) + 1,
			H:   e,
			Op:  opContactEnd,
			A:   int32(c.A),
			B:   int32(c.B),
		}); err != nil {
			panic(fmt.Sprintf("engine: contact end: %v", err))
		}
		// A cursor read failure here is an I/O error, not a programmer
		// error: record it, stop pulling, and let run() surface it once
		// the queue drains.
		if err := e.scheduleNextContactStart(s); err != nil && e.cursorErr == nil {
			e.cursorErr = err
		}
		e.spans.Exit()
		e.contactStart(s.Now(), c.A, c.B)
	case opContactEnd:
		e.contactEnd(trace.NodeID(ev.A), trace.NodeID(ev.B))
	case opWorkloadGen:
		i := int(ev.P)
		g := e.gens[i]
		e.gens[i].body = nil // the node owns the payload from here on
		e.spans.Enter(obs.SpanSchedule)
		if err := e.scheduleNextGen(s, i+1); err != nil {
			panic(fmt.Sprintf("engine: workload cursor: %v", err))
		}
		e.spans.Exit()
		e.generate(s.Now(), g.src, g.dst, g.body)
	}
}

// scheduleContactsLegacy pre-materializes two closures per contact, exactly
// as the engine did before streaming scheduling. Test-only: the differential
// oracle for the streaming rewrite.
func (e *engine) scheduleContactsLegacy(s *sim.Simulator) error {
	tr, err := trace.Materialize(e.cfg.Trace)
	if err != nil {
		return err
	}
	for _, c := range tr.Contacts() {
		if c.End <= e.startAt || c.Start >= e.endAt {
			continue
		}
		c := c
		start, end := e.clampContact(c)
		if _, err := s.Schedule(start, func(s *sim.Simulator) {
			e.contactStart(s.Now(), c.A, c.B)
		}); err != nil {
			return err
		}
		if _, err := s.Schedule(end, func(*sim.Simulator) {
			e.contactEnd(c.A, c.B)
		}); err != nil {
			return err
		}
	}
	return nil
}

// scheduleWorkloadLegacy is the pre-streaming closure-per-generation
// workload scheduler. Test-only, paired with scheduleContactsLegacy.
func (e *engine) scheduleWorkloadLegacy(s *sim.Simulator) error {
	genEnd := e.cfg.WindowTo - e.cfg.GenerationQuiet
	population := e.cfg.Trace.Nodes()
	at := e.cfg.WindowFrom + e.workloadRNG.Exp(e.cfg.MessageInterval)
	for at < genEnd {
		src := trace.NodeID(e.workloadRNG.Intn(population))
		dst := trace.NodeID(e.workloadRNG.Intn(population))
		for dst == src {
			dst = trace.NodeID(e.workloadRNG.Intn(population))
		}
		body := make([]byte, e.cfg.PayloadBytes)
		e.workloadRNG.Bytes(body)
		genAt := at
		if _, err := s.Schedule(genAt, func(s *sim.Simulator) {
			e.generate(s.Now(), src, dst, body)
		}); err != nil {
			return err
		}
		at += e.workloadRNG.Exp(e.cfg.MessageInterval)
	}
	return nil
}

func (e *engine) generate(now sim.Time, src, dst trace.NodeID, body []byte) {
	if err := e.nodes[src].Generate(now, dst, body); err != nil {
		// Generation can only fail on programmer error (self-destined);
		// the workload generator never produces that.
		panic(fmt.Sprintf("engine: generate: %v", err))
	}
	// The new message can ride any contact already in progress.
	e.cascadeFrom(now, src)
}

func (e *engine) contactStart(now sim.Time, a, b trace.NodeID) {
	e.metrics.Engine.NoteContact()
	e.nodes[a].ObserveMeeting(now, b)
	e.nodes[b].ObserveMeeting(now, a)
	key := trace.MakePairKey(a, b)
	e.active[key]++
	if e.active[key] == 1 {
		e.neighbors[a] = insertNeighbor(e.neighbors[a], b)
		e.neighbors[b] = insertNeighbor(e.neighbors[b], a)
	}
	if now < e.cfg.WindowFrom {
		return // warm-up: quality bookkeeping only
	}
	if e.sessionPair(now, a, b) {
		e.cascadeFrom(now, a)
		e.cascadeFrom(now, b)
	}
}

func (e *engine) contactEnd(a, b trace.NodeID) {
	key := trace.MakePairKey(a, b)
	if e.active[key] == 0 {
		return
	}
	e.active[key]--
	if e.active[key] == 0 {
		delete(e.active, key)
		e.neighbors[a] = removeNeighbor(e.neighbors[a], b)
		e.neighbors[b] = removeNeighbor(e.neighbors[b], a)
	}
}

// sessionPair runs both directions of an encounter session; it reports
// whether any custody moved.
func (e *engine) sessionPair(now sim.Time, a, b trace.NodeID) bool {
	na, nb := e.nodes[a], e.nodes[b]
	if na.Blacklisted(b) || nb.Blacklisted(a) {
		return false
	}
	e.spans.Enter(obs.SpanSession)
	moved := false
	if t, err := na.RunSession(now, nb); err == nil && t {
		moved = true
	}
	if t, err := nb.RunSession(now, na); err == nil && t {
		moved = true
	}
	e.metrics.Engine.NoteSession(moved)
	e.spans.Exit()
	return moved
}

// cascadeFrom propagates new custody through the current connectivity
// component: a node that just received messages immediately runs sessions
// with its other active neighbors, as the radios are still in range.
func (e *engine) cascadeFrom(now sim.Time, origin trace.NodeID) {
	if now < e.cfg.WindowFrom {
		return
	}
	e.metrics.Engine.NoteCascade()
	// The BFS queue is reused across cascades; head indexes into it instead
	// of re-slicing so append can keep using the same backing array.
	queue := append(e.cascadeBuf[:0], origin)
	head := 0
	// The budget bounds pathological cascades; seen-sets guarantee natural
	// termination long before it is hit.
	budget := 4 * len(e.nodes) * len(e.nodes)
	for head < len(queue) && budget > 0 {
		n := queue[head]
		head++
		// Neighbor slices are already sorted and are not mutated during a
		// cascade (contact changes arrive as separate events), so this
		// iteration is stable and allocation-free.
		for _, peer := range e.neighbors[n] {
			budget--
			if e.sessionPair(now, n, peer) {
				queue = append(queue, peer)
			}
		}
	}
	e.cascadeBuf = queue
}

// insertNeighbor adds v to a sorted neighbor list, keeping it sorted.
func insertNeighbor(list []trace.NodeID, v trace.NodeID) []trace.NodeID {
	i, found := slices.BinarySearch(list, v)
	if found {
		return list // guarded by the active-contact refcount
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = v
	return list
}

// removeNeighbor deletes v from a sorted neighbor list in place.
func removeNeighbor(list []trace.NodeID, v trace.NodeID) []trace.NodeID {
	i, found := slices.BinarySearch(list, v)
	if !found {
		return list
	}
	return append(list[:i], list[i+1:]...)
}

// GenerateTrace is a convenience for experiments: build a preset's trace.
func GenerateTrace(cfg mobility.Config, seed int64) (*trace.Trace, error) {
	return mobility.Generate(cfg, seed)
}
