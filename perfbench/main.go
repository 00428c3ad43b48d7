// Command perfbench is the repository's benchmark: three workloads that each
// load a different layer of the give2get simulator, timed end to end through
// the public give2get API, with the simulated output of every timed unit
// checked against a committed reference.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see workloads.go for why each was chosen):
//
//	infocom-g2g-epidemic  relay-bound: the default g2gsim run, relay offers and envelope crypto
//	large40k-replay       replay-bound: 40,000-node out-of-core trace, decode, event kernel, warm-up
//	table1-audited-ckpt   Table I with the invariant auditor and periodic checkpoints
//
// With --trace 0 the run reports the end-to-end metrics (run_s, events_per_s,
// setup_s, peak_rss_mb). With --trace 1 it makes the same timed runs and then
// a traced pass that reports the per-layer metrics (layers.go). The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the lines before it are the human-readable report.
//
// The seed is the workload seed: traces, deviant sets and the experiment seed
// are derived from it, and the simulator receives only the generated inputs.
// reference.json holds the expected outcome of every input for seeds 0-31
// and for the held-out seed 7919, which later changes use to check a claimed
// gain on a seed they were not tuned on. Regenerate it only with a change
// that declares a model change:
//
//	bash perfbench/run.sh --record perfbench/reference.json
//
// The traces are synthetic substitutes for the paper's CRAWDAD datasets, so
// the model is unvalidated against the paper's numbers and the benchmark
// reports no accuracy figure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is the seed later changes keep out of their tuning and use to
// confirm a claimed gain.
const heldOutSeed = 7919

// minUnits is the fewest timed units a run makes, whatever --seconds says,
// so a single-input run_s is a median of at least three samples.
const minUnits = 3

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Float64("seconds", 25, "how long the timed units run, in seconds")
		traced   = fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
		spansDir = fs.String("spans-dir", "", "directory the traced pass writes its spans to (empty: not written)")
		record   = fs.String("record", "", "write the reference outcomes of the committed seeds to this file and exit")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch {
	case *record != "":
		err = recordReference(*record, os.Stderr)
	case *traced != 0 && *traced != 1:
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *traced)
	case *seconds <= 0:
		err = errors.New("--seconds must be positive")
	default:
		err = bench(os.Stdout, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *spansDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure. A per-layer metric whose layer did no work
// on the workload is reported with measured false: its report line says "not
// measured" and its JSON value is -1, never a silent zero.
type metric struct {
	Name     string
	Unit     string
	Value    float64
	Measured bool
	// Basis gives a derived figure's numerator and denominator, or a
	// measured figure's source, so a moved ratio can be traced to the count
	// or the time that moved.
	Basis string
}

func measured(name, unit string, v float64, basis string) metric {
	return metric{Name: name, Unit: unit, Value: v, Measured: true, Basis: basis}
}

func notMeasured(name, unit, why string) metric {
	return metric{Name: name, Unit: unit, Value: -1, Basis: why}
}

// ratio reports num/den, or not measured when the denominator is zero.
func ratio(name, unit string, num, den float64, numName, denName string) metric {
	if den == 0 {
		return notMeasured(name, unit, denName+" is 0")
	}
	return measured(name, unit, num/den, fmt.Sprintf("%s %s / %s %s", numName, fmtNum(num), denName, fmtNum(den)))
}

func fmtNum(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// tally counts the checked operations of a run.
type tally struct {
	attempted, failed int
}

// check records one checked operation; a non-nil err is a failed one.
func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
	}
}

func bench(stdout io.Writer, name string, seed int64, seconds time.Duration, traced bool, spansDir string) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	printMachine(stdout)
	fmt.Fprintf(stdout, "workload:    %s  seed=%d  seconds=%v  trace=%v\n", name, seed, seconds.Seconds(), traced)
	fmt.Fprintln(stdout, "accuracy:    not reported; the traces are synthetic substitutes, so the model is unvalidated against the paper's CRAWDAD numbers")

	// Set-up, several times: setup_s is the median, and the inputs of the
	// last round are the ones the timed units use.
	var setups []float64
	for r := 0; r < w.setupRounds(); r++ {
		var err error
		cpu, _ := timed(func() { err = w.setup(seed, tmp) })
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpu)
	}
	ref := lookupReference(name, seed)
	if ref != nil {
		fmt.Fprintf(stdout, "reference:   committed outcomes for seed %d\n", seed)
	} else {
		fmt.Fprintf(stdout, "reference:   none committed for seed %d; every unit is checked against the first unit of its input\n", seed)
	}
	chk := newChecker(ref)

	// Timed units, tracing off. Unit i replays input i mod inputs(), and
	// every input runs at least once.
	var tl tally
	var cpus, walls []float64
	var events int64
	byInput := make(map[int][]float64)
	start := time.Now()
	for i := 0; i < max(minUnits, w.inputs()) || time.Since(start) < seconds; i++ {
		in := i % w.inputs()
		var out unitResult
		var err error
		cpu, wall := timed(func() { out, err = w.unit(in) })
		if err == nil {
			err = chk.check(in, out.digest)
		}
		tl.check(fmt.Sprintf("unit %d (input %d)", i, in), err)
		cpus = append(cpus, cpu)
		walls = append(walls, wall)
		byInput[in] = append(byInput[in], cpu)
		events += out.events
	}
	// run_s weighs every input equally: the mean over inputs of each
	// input's median unit.
	var runS float64
	for _, xs := range byInput {
		runS += median(xs) / float64(len(byInput))
	}
	fmt.Fprintf(stdout, "units:       %d timed over %d inputs; cpu median %.4f s, quartiles %.4f..%.4f s; wall median %.4f s, quartiles %.4f..%.4f s\n",
		len(cpus), len(byInput), median(cpus), quantile(cpus, 0.25), quantile(cpus, 0.75),
		median(walls), quantile(walls, 0.25), quantile(walls, 0.75))

	var metrics []metric
	if !traced {
		if ec, ok := w.(eventCounter); ok {
			// The count is deterministic, so every timed unit fired as many.
			out, err := ec.countEvents()
			if err == nil {
				err = chk.check(0, out.digest)
			}
			tl.check("event-counting unit", err)
			events = out.events * int64(len(cpus))
		}
		var total float64
		for _, d := range cpus {
			total += d
		}
		metrics = []metric{
			measured("run_s", "s", runS, fmt.Sprintf("CPU s per unit, mean over %d inputs of each input's median, %d units", len(byInput), len(cpus))),
			ratio("events_per_s", "1/s", float64(events), total, "sim.events_fired", "timed CPU s"),
			measured("setup_s", "s", median(setups), fmt.Sprintf("CPU s, median of %d set-ups", len(setups))),
			measured("peak_rss_mb", "MiB", peakRSSMB(), "getrusage maxrss"),
		}
	} else {
		tr := newTracer()
		var err error
		metrics, err = w.traced(tr, layerBase{runS: runS, inputCPU: byInput, tally: &tl, check: chk.check})
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		if spansDir != "" {
			path, err := tr.write(spansDir, fmt.Sprintf("%s-seed%d", name, seed))
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "spans:       %d written to %s\n", len(tr.spans), path)
		}
	}
	return report(stdout, metrics, tl)
}

// report prints one line per metric and then the result object as the last
// line of output.
func report(stdout io.Writer, metrics []metric, tl tally) error {
	values := make(map[string]any, len(metrics))
	for _, m := range metrics {
		if m.Measured {
			fmt.Fprintf(stdout, "metric:      %-36s %14.6g %-10s (%s)\n", m.Name, m.Value, m.Unit, m.Basis)
		} else {
			fmt.Fprintf(stdout, "metric:      %-36s %14s %-10s (%s)\n", m.Name, "not measured", m.Unit, m.Basis)
		}
		values[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   tl.failed == 0,
		"attempted": tl.attempted,
		"failed":    tl.failed,
		"metrics":   values,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// printMachine records the host the figures were measured on.
func printMachine(w io.Writer) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(w, "machine:     nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

// timed runs fn after a garbage collection, so a unit does not pay for the
// previous unit's garbage, and returns the CPU seconds (user and system) the
// process spent in it and its wall seconds.
//
// The timing metrics are CPU seconds because wall time on a shared virtual
// machine includes the time the hypervisor steals: on a 2-vCPU Xeon guest,
// repeats of one infocom-g2g-epidemic input ranged 6.0..7.2 s in wall time
// and 5.04..5.30 s in CPU time. The simulation is single threaded (no
// shards, no crypto workers), so on an idle host CPU time is its wall time
// plus the collector's work on the other core.
func timed(fn func()) (cpu, wall float64) {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	fn()
	return cpuSeconds() - c0, time.Since(t0).Seconds()
}

// cpuSeconds is the CPU time the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
