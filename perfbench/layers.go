package main

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"give2get"
	"give2get/internal/g2gcrypto"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/wire"
)

// layerBase is what the timed units hand to the traced pass.
type layerBase struct {
	// runS is the run_s of the timed units, in CPU seconds.
	runS float64
	// inputCPU holds the CPU seconds of each input's timed units.
	inputCPU map[int][]float64
	tally    *tally
	// check compares an outcome digest with input in's reference.
	check func(in int, digest string) error
}

// layerInputs is what a workload's traced pass measured, for layerMetrics
// to turn into the per-layer metrics.
type layerInputs struct {
	// tel is the telemetry of the traced unit (registry attached, so the
	// program's own timers and spans are on).
	tel *give2get.Telemetry
	// tracedCPU and untracedCPU are the CPU seconds of the same unit with
	// and without the registry.
	tracedCPU, untracedCPU float64

	contacts, warmupContacts int64
	decodeS                  float64
	decodeNote               string
	generateS                float64

	// checkpointS and auditS are layer costs by difference, measured when
	// their basis is set: only the workload that checkpoints and audits.
	checkpointS, auditS         float64
	checkpointBasis, auditBasis string
}

// The wire kinds of the relay offers: G2G Epidemic's handshake (an offer,
// and its decline or acceptance) and G2G Delegation's quality request, which
// is its offer to relay.
const (
	kindOffer      = "RELAY_RQST"
	kindDecline    = "RELAY_DECLINE"
	kindOK         = "RELAY_OK"
	kindQualityReq = "FQ_RQST"
)

// reportedSpans are the program spans whose self time the traced pass
// reports.
var reportedSpans = []string{"session", "relay", "test", "decide", "por", "pom", "crypto_hmac", "audit", "contact_schedule"}

// layerMetrics assembles every per-layer metric from the traced pass's
// measurements and the layer microbenchmarks, which it runs.
func layerMetrics(tr *tracer, parent int, l layerInputs) []metric {
	tel := l.tel
	var ms []metric
	add := func(m ...metric) { ms = append(ms, m...) }
	count := func(name string, v int64) metric {
		return measured(name, "count", float64(v), "program telemetry")
	}
	seconds := func(name string, s float64, basis string) metric {
		if s == 0 {
			return notMeasured(name, "s", "no time recorded: the layer did no work")
		}
		return measured(name, "s", s, basis)
	}

	// trace
	decodeBasis := "benchmark cursor pass"
	if l.decodeNote != "" {
		decodeBasis += " from " + l.decodeNote
	}
	add(measured("trace.contacts", "count", float64(l.contacts), "benchmark cursor pass"),
		seconds("trace.decode_s", l.decodeS, decodeBasis),
		ratio("trace.ns_per_contact", "ns", l.decodeS*1e9, float64(l.contacts), "trace.decode_ns", "trace.contacts"))

	// mobility
	add(seconds("mobility.generate_s", l.generateS, "benchmark, generation only"))

	// sim
	add(count("sim.events_fired", tel.Sim.EventsFired),
		count("sim.events_scheduled", tel.Sim.EventsScheduled),
		count("sim.queue_high_water", tel.Sim.QueueHighWater),
		kernelNsPerEvent(tr, parent, tel.Sim.QueueHighWater))

	// engine
	ph := tel.Engine.Phases
	warmNS, windowNS := float64(ph.Warmup.WallNS), float64(ph.Window.WallNS)
	add(seconds("engine.warmup_s", warmNS/1e9, "program phase wall"),
		seconds("engine.window_s", windowNS/1e9, "program phase wall"),
		seconds("engine.drain_s", float64(ph.Drain.WallNS)/1e9, "program phase wall"),
		count("engine.contacts_replayed", tel.Engine.ContactsReplayed),
		ratio("engine.warmup_ns_per_contact", "ns", warmNS, float64(l.warmupContacts), "engine.warmup_ns", "warm-up contacts"),
		count("engine.sessions_run", tel.Engine.SessionsRun),
		count("engine.cascades", tel.Engine.Cascades),
		count("engine.messages_relayed", tel.Engine.MessagesRelayed),
		ratio("engine.window_ns_per_session", "ns", windowNS, float64(tel.Engine.SessionsRun), "engine.window_ns", "engine.sessions_run"))
	if l.checkpointBasis == "" {
		add(notMeasured("engine.checkpoint_s", "s", "the workload writes no checkpoints"))
	} else {
		add(measured("engine.checkpoint_s", "s", l.checkpointS, l.checkpointBasis))
	}

	// protocol
	wireKinds := tel.Protocol.Wire
	offers := float64(wireKinds[kindOffer].Count + wireKinds[kindQualityReq].Count)
	relaySpan, relayOK := spanOf(tel, "relay")
	nsPerOffer := notMeasured("protocol.ns_per_offer", "ns", "no relay span in the telemetry")
	if relayOK {
		nsPerOffer = ratio("protocol.ns_per_offer", "ns", float64(relaySpan.WallNS), offers, "obs.span.relay_wall_ns", "protocol.relay_offers")
	}
	add(measured("protocol.relay_offers", "count", offers, "program telemetry, "+kindOffer+"+"+kindQualityReq+" envelopes"),
		ratio("protocol.relay_accept_ratio", "ratio", float64(tel.Engine.MessagesRelayed), offers, "engine.messages_relayed", "protocol.relay_offers"),
		nsPerOffer,
		count("protocol.tests_started", tel.Protocol.TestsStarted),
		count("protocol.tests_failed", tel.Protocol.TestsFailed),
		count("protocol.quality_updates", tel.Protocol.QualityUpdates))

	// wire
	var envelopes int64
	for _, w := range wireKinds {
		envelopes += w.Count
	}
	handshake := wireKinds[kindOffer].Count + wireKinds[kindDecline].Count + wireKinds[kindOK].Count
	add(count("wire.envelopes", envelopes),
		measured("wire.bytes", "bytes", float64(tel.Protocol.WireBytesTotal), "program telemetry"),
		ratio("wire.handshake_share", "ratio", float64(handshake), float64(envelopes), kindOffer+"+"+kindDecline+"+"+kindOK, "wire.envelopes"),
		wireSignVerify(tr, parent))

	// g2gcrypto
	cr := tel.Crypto
	add(count("g2gcrypto.signs", cr.Sign.Count),
		count("g2gcrypto.verifies", cr.Verify.Count),
		providerSignVerify(tr, parent, "g2gcrypto.fast_sign_verify_ns", false),
		count("g2gcrypto.heavy_hmac_calls", cr.HeavyHMAC.Count),
		count("g2gcrypto.heavy_hmac_iterations", cr.HeavyHMACIterations),
		heavyHMAC(tr, parent, cr.HeavyHMAC.Count, cr.HeavyHMACIterations))
	if cr.Pool != nil {
		add(ratio("g2gcrypto.pool_jobs_per_flush", "jobs/flush", float64(cr.Pool.Jobs), float64(cr.Pool.Flushes), "pool jobs", "pool flushes"))
	} else {
		add(notMeasured("g2gcrypto.pool_jobs_per_flush", "jobs/flush", "the crypto pool never flushed"))
	}
	add(providerSignVerify(tr, parent, "g2gcrypto.real_sign_verify_ns", true))

	// invariant
	if l.auditBasis == "" {
		add(notMeasured("invariant.audit_s", "s", "the workload runs no auditor"))
	} else {
		add(measured("invariant.audit_s", "s", l.auditS, l.auditBasis))
	}

	// obs
	add(ratio("obs.timing_overhead_pct", "%", 100*(l.tracedCPU-l.untracedCPU), l.untracedCPU,
		"100 x (traced unit - untraced unit) CPU s", "untraced unit CPU s"))
	for _, name := range reportedSpans {
		metricName := "obs.span." + name + "_self_s"
		if s, ok := spanOf(tel, name); ok {
			add(measured(metricName, "s", float64(s.SelfNS)/1e9, fmt.Sprintf("program span, %d calls", s.Count)))
		} else {
			add(notMeasured(metricName, "s", "span not recorded on this workload"))
		}
	}
	return ms
}

// spanOf finds a program span that recorded time.
func spanOf(tel *give2get.Telemetry, name string) (obs.SpanSnapshot, bool) {
	for _, s := range tel.Spans {
		if s.Name == name && s.Count > 0 && s.WallNS > 0 {
			return s, true
		}
	}
	return obs.SpanSnapshot{}, false
}

// microRounds is how many timed batches a microbenchmark makes; it reports
// the median batch.
const microRounds = 5

// micro times fn over microRounds batches of n calls after one warm-up
// batch, and returns the median ns per call.
func micro(n int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	per := make([]float64, 0, microRounds)
	for r := 0; r < microRounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// microMetric runs a microbenchmark inside a span and reports its result.
func microMetric(tr *tracer, parent int, name, basis string, n int, fn func() error) metric {
	sp := tr.begin(name, parent)
	ns, err := micro(n, fn)
	tr.end(sp)
	if err != nil {
		return notMeasured(name, "ns", err.Error())
	}
	return measured(name, "ns", ns, fmt.Sprintf("%s, median of %d batches of %d", basis, microRounds, n))
}

// kernelLoad keeps a fixed number of events pending in a kernel: every event
// it handles schedules one replacement until its budget runs out.
type kernelLoad struct {
	left int
	x    uint64
	err  error
}

func (k *kernelLoad) HandleEvent(s *sim.Simulator, _ sim.Event) {
	if k.left == 0 {
		return
	}
	k.left--
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	if err := s.ScheduleEvent(sim.Event{At: s.Now() + 1 + sim.Time(k.x%uint64(sim.Minute)), H: k}); err != nil && k.err == nil {
		k.err = err
	}
}

// kernelEvents is how many events the kernel microbenchmark fires per batch.
const kernelEvents = 1 << 19

// kernelNsPerEvent prices one schedule+fire of the event kernel at the
// workload's queue high-water depth.
func kernelNsPerEvent(tr *tracer, parent int, depth int64) metric {
	const name = "sim.ns_per_event"
	depth = max(1, min(depth, kernelEvents))
	sp := tr.begin(name, parent)
	defer tr.end(sp)
	per := make([]float64, 0, microRounds)
	for r := 0; r <= microRounds; r++ {
		s := sim.New()
		k := &kernelLoad{left: kernelEvents - int(depth), x: 88172645463325252}
		for i := int64(0); i < depth; i++ {
			if err := s.ScheduleEvent(sim.Event{At: sim.Time(i), H: k}); err != nil {
				return notMeasured(name, "ns", err.Error())
			}
		}
		start := time.Now()
		_, err := s.Run()
		d := time.Since(start)
		if err == nil {
			err = k.err
		}
		if err != nil {
			return notMeasured(name, "ns", err.Error())
		}
		if r > 0 { // the first batch warms up
			per = append(per, float64(d.Nanoseconds())/kernelEvents)
		}
	}
	return measured(name, "ns", median(per),
		fmt.Sprintf("benchmark, %d events at queue depth %d (sim.queue_high_water), median of %d batches", kernelEvents, depth, microRounds))
}

// relayRequest is a RELAY_RQST body, the envelope the relay offer loop
// signs and verifies most.
func relayRequest() wire.Body {
	return wire.RelayRequest{Hash: g2gcrypto.Hash([]byte("perfbench"))}
}

// wireSignVerify prices one envelope sign and verify of a RELAY_RQST on the
// fast provider, through the scratch path the protocol uses.
func wireSignVerify(tr *tracer, parent int) metric {
	const name = "wire.sign_verify_ns"
	sys, err := g2gcrypto.NewFast(2, 1)
	if err != nil {
		return notMeasured(name, "ns", err.Error())
	}
	id, err := sys.Identity(0)
	if err != nil {
		return notMeasured(name, "ns", err.Error())
	}
	var sc wire.Scratch
	body := relayRequest()
	return microMetric(tr, parent, name, "benchmark, wire.Scratch Sign+Verify of a "+kindOffer, 100000, func() error {
		if !sc.Verify(sys, sc.Sign(id, sim.Hour, body)) {
			return fmt.Errorf("envelope failed verification")
		}
		return nil
	})
}

// providerSignVerify prices one provider Sign and Verify over the bytes a
// RELAY_RQST envelope signs, on the fast or the real provider.
func providerSignVerify(tr *tracer, parent int, name string, real bool) metric {
	var sys g2gcrypto.System
	var err error
	n := 100000
	if real {
		sys, err = g2gcrypto.NewReal(2, rand.Reader)
		n = 1000
	} else {
		sys, err = g2gcrypto.NewFast(2, 1)
	}
	if err != nil {
		return notMeasured(name, "ns", err.Error())
	}
	id, err := sys.Identity(0)
	if err != nil {
		return notMeasured(name, "ns", err.Error())
	}
	// The signing input: kind byte, signer, timestamp, body.
	data := append(make([]byte, 1+4+8), relayRequest().MarshalBody(nil)...)
	return microMetric(tr, parent, name, fmt.Sprintf("benchmark, %s provider Sign+Verify of %d bytes", sys.Name(), len(data)), n, func() error {
		if !sys.Verify(0, data, id.Sign(data)) {
			return fmt.Errorf("signature failed verification")
		}
		return nil
	})
}

// heavyHMAC prices one storage-proof computation at the workload's mean
// iteration count.
func heavyHMAC(tr *tracer, parent int, calls, iterations int64) metric {
	const name = "g2gcrypto.heavy_hmac_ns"
	if calls == 0 {
		return notMeasured(name, "ns", "the workload computed no storage proofs")
	}
	iters := int((iterations + calls/2) / calls)
	msg := make([]byte, 256)
	seed := []byte("perfbench-seed")
	return microMetric(tr, parent, name, fmt.Sprintf("benchmark, HeavyHMAC of %d iterations (heavy_hmac_iterations / heavy_hmac_calls)", iters), 200, func() error {
		g2gcrypto.HeavyHMAC(msg, seed, iters)
		return nil
	})
}

// tracer keeps the traced pass's spans in memory; write dumps them.
type tracer struct {
	epoch time.Time
	spans []span
}

// span is one call the benchmark made into a layer.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartNS: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.EndNS = time.Since(t.epoch).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e9
}

// write dumps the spans as JSON into dir and returns the file's path.
func (t *tracer) write(dir, label string) (string, error) {
	b, err := json.MarshalIndent(t.spans, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, label+".spans.json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
