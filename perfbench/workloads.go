package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"give2get"
	"give2get/internal/experiments"
	"give2get/internal/mobility"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// unitResult is what one unit produced: the digest of its checked outcome,
// and the kernel events it fired when the timed API reports them.
type unitResult struct {
	digest string
	events int64
}

// workload is one benchmark workload: inputs generated from the seed, a
// timed unit, and the traced pass that attributes the unit's time to layers.
type workload interface {
	// setupRounds is how many times set-up runs; setup_s is the median.
	setupRounds() int
	// setup generates the workload's inputs from the seed, writing any files
	// under dir.
	setup(seed int64, dir string) error
	// inputs is the number of distinct inputs the timed units cycle through.
	inputs() int
	// unit runs one timed unit on input in, tracing off.
	unit(in int) (unitResult, error)
	// traced runs the traced pass and returns the per-layer metrics.
	traced(tr *tracer, base layerBase) ([]metric, error)
}

// eventCounter is a workload whose timed unit cannot report the kernel
// event count: countEvents runs one unit of input 0 with a telemetry
// registry attached to get it.
type eventCounter interface {
	countEvents() (unitResult, error)
}

func workloadNames() []string {
	return []string{"infocom-g2g-epidemic", "large40k-replay", "table1-audited-ckpt"}
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "infocom-g2g-epidemic":
		return &relayBound{}, nil
	case "large40k-replay":
		return &replayBound{}, nil
	case "table1-audited-ckpt":
		return &auditCheckpoint{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// engineWarmup is how much trace before the experiment window the engine
// replays as warm-up (engine.DefaultWorkload); the traced pass counts the
// contacts in it to price warm-up per contact.
const engineWarmup = 12 * time.Hour

// runOutcome renders the checked part of a Run result: message counts,
// replica cost, mean delay, and every detection with its time. A false
// accusation is an error: the protocols make framing impossible.
func runOutcome(res *give2get.Result) (unitResult, error) {
	if res.FalseAccusations != 0 {
		return unitResult{}, fmt.Errorf("%d false accusations", res.FalseAccusations)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "generated=%d delivered=%d cost=%s delay=%d detections=[",
		res.Generated, res.Delivered, strconv.FormatFloat(res.Cost, 'g', -1, 64), res.MeanDelay)
	for i, d := range res.Detections {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s@%d", d.Node, d.Reason, d.At)
	}
	b.WriteByte(']')
	return unitResult{digest: digest(b.String()), events: res.Telemetry.Sim.EventsFired}, nil
}

// --- infocom-g2g-epidemic ---

// relayBound is the default g2gsim run: the infocom05 preset, G2G Epidemic,
// TTL 30m, a message every 4 s, 10 droppers. Almost all of its time is in
// the relay offer loop and envelope sign/verify; its 9.5k-contact trace is in
// memory and warm-up is a hundredth of a percent of the run, so it bypasses
// trace decode and warm-up.
//
// Which nodes drop moves a run's time by tens of percent, and so does the
// trace draw, so each run cycles through relayInputs inputs that share one
// dataset and spread the dropper role evenly over the nodes (input i's
// droppers are the next relayDroppers nodes of a seeded permutation), each
// with its own simulation seed. The dataset is the fixed draw the paper
// experiments use, as the paper replays fixed traces; drawing it from the
// seed too spread run_s over five seeds by an interquartile range of 18%.
type relayBound struct {
	trace    *give2get.Trace
	seeds    []int64
	deviants [][]int
}

// relayInputs is the number of inputs a run cycles through; every run
// covers all of them, so each run spreads the dropper role alike.
const relayInputs = 10

// relayDroppers is the number of dropper nodes of every input.
const relayDroppers = 10

// relayDatasetSeed draws the infocom05 dataset, as the paper experiments do.
const relayDatasetSeed = 42

func (w *relayBound) setupRounds() int { return 9 }
func (w *relayBound) inputs() int      { return relayInputs }

func (w *relayBound) setup(seed int64, _ string) error {
	tr, err := give2get.GenerateTrace(give2get.PresetInfocom05, relayDatasetSeed)
	if err != nil {
		return err
	}
	n := tr.Nodes()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	w.trace, w.seeds, w.deviants = tr, nil, nil
	for in := 0; in < relayInputs; in++ {
		dev := make([]int, relayDroppers)
		for j := range dev {
			dev[j] = perm[(in*relayDroppers+j)%n]
		}
		sort.Ints(dev)
		w.seeds = append(w.seeds, seed*1000+int64(in))
		w.deviants = append(w.deviants, dev)
	}
	return nil
}

func (w *relayBound) config(in int) give2get.SimulationConfig {
	return give2get.SimulationConfig{
		Trace:           w.trace,
		Protocol:        give2get.G2GEpidemic,
		TTL:             30 * time.Minute,
		Seed:            w.seeds[in],
		MessageInterval: 4 * time.Second,
		Deviants:        w.deviants[in],
		Deviation:       give2get.Droppers,
	}
}

func (w *relayBound) unit(in int) (unitResult, error) {
	res, err := give2get.Run(w.config(in))
	if err != nil {
		return unitResult{}, err
	}
	return runOutcome(res)
}

func (w *relayBound) traced(tr *tracer, base layerBase) ([]metric, error) {
	var l layerInputs
	root := tr.begin("traced infocom-g2g-epidemic input 0", -1)
	defer tr.end(root)

	sp := tr.begin("mobility.Generate infocom05", root)
	src, err := mobility.Generate(mobility.Infocom05(), relayDatasetSeed)
	l.generateS = tr.end(sp)
	if err != nil {
		return nil, err
	}
	first, _, err := trace.SpanOf(src)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("trace cursor pass (in memory)", root)
	// The window starts an hour after the first contact, Run's default.
	err = decodePass(src, first+sim.Hour, 1, &l)
	l.decodeS = tr.end(sp)
	if err != nil {
		return nil, err
	}

	cfg := w.config(0)
	cfg.Registry = give2get.NewMetrics()
	if err := tracedRun(tr, root, cfg, 0, base, &l); err != nil {
		return nil, err
	}
	l.untracedCPU = median(base.inputCPU[0])
	return layerMetrics(tr, root, l), nil
}

// tracedRun makes one Run with a telemetry registry attached and checks it
// reproduces the reference outcome of input in.
func tracedRun(tr *tracer, parent int, cfg give2get.SimulationConfig, in int, base layerBase, l *layerInputs) error {
	sp := tr.begin("give2get.Run with registry", parent)
	var res *give2get.Result
	var err error
	l.tracedCPU, _ = timed(func() { res, err = give2get.Run(cfg) })
	tr.end(sp)
	if err != nil {
		return err
	}
	out, err := runOutcome(res)
	if err == nil {
		err = base.check(in, out.digest)
	}
	base.tally.check("traced unit", err)
	l.tel = res.Telemetry
	return nil
}

// decodePass streams every contact of src through a cursor and counts them,
// and counts the contacts warm-up replays: those before the window start
// from and within engineWarmup of it, once for each of the runs runs that
// share that window.
func decodePass(src trace.Source, from sim.Time, runs int64, l *layerInputs) error {
	cur, err := src.Cursor()
	if err != nil {
		return err
	}
	defer cur.Close()
	for {
		c, ok := cur.Next()
		if !ok {
			break
		}
		l.contacts++
		if c.Start < from && c.End > from-sim.Time(engineWarmup) {
			l.warmupContacts += runs
		}
	}
	return cur.Err()
}

// --- large40k-replay ---

// replayBound replays a 40,000-node community trace (4000 communities of
// 10, one cross-community bridge per node, 14 h) that set-up generates out
// of core into a .g2gt file, with G2G Epidemic, the window at 13 h and a
// message every 5 minutes. About 85% of the run is warm-up replay of 2.3M
// contacts through the event kernel and only about 1.5k envelopes are
// signed, so it stresses trace decode, the kernel and warm-up and bypasses
// relay crypto. It delivers nothing: destinations are uniform over 40,000
// nodes, which is the engine's workload model and not a fault.
type replayBound struct {
	seed int64
	path string
	tr   *give2get.Trace
}

func (w *replayBound) setupRounds() int { return 3 }
func (w *replayBound) inputs() int      { return 1 }

// largeConfig is the trace model of cmd/tracegen -large with the pair
// dynamics of its presets.
func largeConfig() mobility.LargeConfig {
	return mobility.LargeConfig{
		Name:              "large40k",
		Communities:       4000,
		CommunitySize:     10,
		AcrossDegree:      1,
		Duration:          14 * sim.Hour,
		Within:            mobility.PairParams{ShortGap: 12 * sim.Minute, LongGap: 150 * sim.Minute, BurstProb: 0.6},
		Across:            mobility.PairParams{ShortGap: 25 * sim.Minute, LongGap: 8 * sim.Hour, BurstProb: 0.35},
		ContactMean:       100 * sim.Second,
		SociabilitySpread: 0.5,
	}
}

// setup generates the trace through the external sort into dir and opens
// it. Each of the set-up rounds rewrites the same file, which the temp dir's
// removal deletes at exit.
func (w *replayBound) setup(seed int64, dir string) error {
	cfg := largeConfig()
	w.seed = seed
	w.path = filepath.Join(dir, "large40k"+trace.BinaryExt)
	ext := trace.NewExtWriter(w.path, cfg.Name, cfg.Nodes(), trace.ExtOptions{})
	if err := mobility.GenerateLarge(cfg, seed, ext.Add); err != nil {
		return err
	}
	if err := ext.Close(); err != nil {
		return err
	}
	tr, err := give2get.OpenTrace(w.path)
	if err != nil {
		return err
	}
	w.tr = tr
	return nil
}

func (w *replayBound) config() give2get.SimulationConfig {
	return give2get.SimulationConfig{
		Trace:           w.tr,
		Protocol:        give2get.G2GEpidemic,
		TTL:             30 * time.Minute,
		Seed:            w.seed,
		WindowStart:     13 * time.Hour,
		MessageInterval: 5 * time.Minute,
	}
}

func (w *replayBound) unit(int) (unitResult, error) {
	res, err := give2get.Run(w.config())
	if err != nil {
		return unitResult{}, err
	}
	return runOutcome(res)
}

func (w *replayBound) traced(tr *tracer, base layerBase) ([]metric, error) {
	var l layerInputs
	root := tr.begin("traced large40k-replay", -1)
	defer tr.end(root)

	// Generation alone, without the sort and the file: what mobility costs.
	sp := tr.begin("mobility.GenerateLarge", root)
	var emitted int
	err := mobility.GenerateLarge(largeConfig(), w.seed, func(trace.Contact) error { emitted++; return nil })
	l.generateS = tr.end(sp)
	if err != nil {
		return nil, err
	}

	src, err := trace.Open(w.path)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("trace cursor pass (.g2gt, warm page cache)", root)
	err = decodePass(src, sim.Time(w.config().WindowStart), 1, &l)
	l.decodeS = tr.end(sp)
	if err != nil {
		return nil, err
	}
	if l.contacts != int64(emitted) {
		return nil, fmt.Errorf("decoded %d contacts, generated %d", l.contacts, emitted)
	}
	l.decodeNote = "a warm page cache: set-up wrote the file just before"

	cfg := w.config()
	cfg.Registry = give2get.NewMetrics()
	if err := tracedRun(tr, root, cfg, 0, base, &l); err != nil {
		return nil, err
	}
	l.untracedCPU = base.runS
	return layerMetrics(tr, root, l), nil
}

// --- table1-audited-ckpt ---

// auditCheckpoint regenerates Table I at quick scale, one simulation at a
// time, with the invariant auditor on and a checkpoint every 30 minutes of
// virtual time: 12 G2G Delegation (Destination Last Contact) runs over both
// presets, covering every deviation and the outsider variants that need
// k-clique communities. It exercises the layers the other two workloads do
// not: checkpoint and journal writes beside the replay, the FQ quality
// exchange, the test phase's heavy HMAC and the auditor. Its input is the
// experiment seed; the two datasets are the scenarios' fixed draws.
type auditCheckpoint struct {
	seed int64
	dir  string
}

// table1Runs is the number of simulations Table I makes per scenario: three
// deviations, each plain and with outsiders.
const table1Runs = 6

// table1CheckpointEvery is the virtual-time period of the per-run
// checkpoints.
const table1CheckpointEvery = 30 * time.Minute

func (w *auditCheckpoint) setupRounds() int { return 5 }
func (w *auditCheckpoint) inputs() int      { return 1 }

// setup draws the two datasets Table I replays. The experiment keeps its own
// memoized copy, drawn inside its first unit; that is a few tens of
// milliseconds against seconds per unit, and the median unit never holds it.
func (w *auditCheckpoint) setup(seed int64, dir string) error {
	w.seed, w.dir = seed, dir
	for _, s := range experiments.BothScenarios() {
		if _, err := mobility.Generate(s.Mobility, s.TraceSeed); err != nil {
			return err
		}
	}
	return nil
}

// options returns the experiment options of one unit, with checkpoints in a
// fresh directory under w.dir; the caller removes it.
func (w *auditCheckpoint) options(audit, checkpoints bool) (give2get.ExperimentOptions, error) {
	opts := give2get.ExperimentOptions{Quick: true, Seed: w.seed, Jobs: 1, Audit: audit}
	if checkpoints {
		dir, err := os.MkdirTemp(w.dir, "ckpt-")
		if err != nil {
			return opts, err
		}
		opts.CheckpointDir = dir
		opts.CheckpointEvery = table1CheckpointEvery
	}
	return opts, nil
}

// run regenerates Table I through the public API; an audit violation fails
// the experiment with an error.
func (w *auditCheckpoint) run(audit, checkpoints bool) (unitResult, error) {
	opts, err := w.options(audit, checkpoints)
	if err != nil {
		return unitResult{}, err
	}
	if opts.CheckpointDir != "" {
		defer os.RemoveAll(opts.CheckpointDir)
	}
	text, err := give2get.RunExperimentWith("table1", opts)
	if err != nil {
		return unitResult{}, err
	}
	return unitResult{digest: digest(text)}, nil
}

func (w *auditCheckpoint) unit(int) (unitResult, error) { return w.run(true, true) }

// countEvents runs the unit through the experiments package with a registry
// attached, since the public experiment API returns only the rendered
// tables.
func (w *auditCheckpoint) countEvents() (unitResult, error) {
	out, _, err := w.registryUnit()
	return out, err
}

func (w *auditCheckpoint) registryUnit() (unitResult, *give2get.Telemetry, error) {
	opts, err := w.options(true, true)
	if err != nil {
		return unitResult{}, nil, err
	}
	defer os.RemoveAll(opts.CheckpointDir)
	reg := give2get.NewMetrics()
	tables, err := experiments.Run("table1", experiments.Options{
		Quick: true, Seed: w.seed, Jobs: 1, Audit: true, Telemetry: reg,
		CheckpointDir: opts.CheckpointDir, CheckpointEvery: sim.Time(opts.CheckpointEvery),
	})
	if err != nil {
		return unitResult{}, nil, err
	}
	// Rendered as give2get.RunExperimentWith renders them.
	var b strings.Builder
	for i, tbl := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		if err := tbl.Render(&b); err != nil {
			return unitResult{}, nil, err
		}
	}
	snap := reg.Snapshot()
	return unitResult{digest: digest(b.String()), events: snap.Sim.EventsFired}, snap, nil
}

func (w *auditCheckpoint) traced(tr *tracer, base layerBase) ([]metric, error) {
	var l layerInputs
	root := tr.begin("traced table1-audited-ckpt", -1)
	defer tr.end(root)

	var srcs []*trace.Trace
	var froms []sim.Time
	sp := tr.begin("mobility.Generate both scenarios", root)
	for _, s := range experiments.BothScenarios() {
		src, err := mobility.Generate(s.Mobility, s.TraceSeed)
		if err != nil {
			return nil, err
		}
		from, _, err := s.Window()
		if err != nil {
			return nil, err
		}
		srcs, froms = append(srcs, src), append(froms, from)
	}
	l.generateS = tr.end(sp)
	sp = tr.begin("trace cursor pass (in memory, both scenarios)", root)
	for i, src := range srcs {
		if err := decodePass(src, froms[i], table1Runs, &l); err != nil {
			return nil, err
		}
	}
	l.decodeS = tr.end(sp)

	sp = tr.begin("experiments.Run table1 with registry", root)
	var out unitResult
	var snap *give2get.Telemetry
	var err error
	l.tracedCPU, _ = timed(func() { out, snap, err = w.registryUnit() })
	tr.end(sp)
	if err == nil {
		err = base.check(0, out.digest)
	}
	base.tally.check("traced unit", err)
	if snap == nil {
		return nil, fmt.Errorf("traced unit: %w", err)
	}
	l.tel = snap
	l.untracedCPU = base.runS

	// Layer costs by difference: one untraced unit without the layer,
	// against the median of the timed units with it.
	for _, v := range []struct {
		name               string
		audit, checkpoints bool
		dst                *float64
	}{
		{"unit without checkpoints", true, false, &l.checkpointS},
		{"unit without auditor", false, true, &l.auditS},
	} {
		sp := tr.begin("give2get.RunExperimentWith table1 "+v.name, root)
		var out unitResult
		var err error
		cpu, _ := timed(func() { out, err = w.run(v.audit, v.checkpoints) })
		tr.end(sp)
		if err == nil {
			err = base.check(0, out.digest)
		}
		base.tally.check(v.name, err)
		*v.dst = base.runS - cpu
	}
	l.checkpointBasis = "run_s minus one unit without checkpoints, CPU s"
	l.auditBasis = "run_s minus one unit without the auditor, CPU s"
	return layerMetrics(tr, root, l), nil
}
