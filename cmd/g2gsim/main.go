// Command g2gsim runs a single forwarding simulation and prints its
// metrics.
//
// Usage:
//
//	g2gsim -preset infocom05 -protocol g2g-epidemic -ttl 30m
//	g2gsim -trace contacts.txt -protocol epidemic -ttl 35m \
//	       -droppers 10 -outsiders
//	g2gsim -telemetry report.json -progress 10s -cpuprofile cpu.out
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"give2get"
	"give2get/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "g2gsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("g2gsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset    = fs.String("preset", "infocom05", "built-in trace preset (infocom05|cambridge06|campus-spatial)")
		tracePath = fs.String("trace", "", "contact trace file, text or binary .g2gt (overrides -preset)")
		proto     = fs.String("protocol", "g2g-epidemic", "forwarding protocol")
		ttl       = fs.Duration("ttl", 30*time.Minute, "message TTL Δ1 (Δ2 = 2×TTL)")
		seed      = fs.Int64("seed", 1, "simulation seed")
		window    = fs.Duration("window", 0, "experiment window start inside the trace (0 = auto)")
		interval  = fs.Duration("interval", 4*time.Second, "mean message inter-generation time")
		deviants  = fs.Int("deviants", 0, "number of deviating nodes")
		deviation = fs.String("deviation", "dropper", "deviation strategy (dropper|liar|cheater)")
		outsiders = fs.Bool("outsiders", false, "deviants spare their own community")
		realCrypt = fs.Bool("realcrypto", false, "use Ed25519/X25519/AES-GCM instead of the fast provider")
		audit     = fs.Bool("audit", false, "run the invariant auditor alongside the simulation; violations fail the run")
		repeats   = fs.Int("repeats", 1, "average the run over this many derived seeds (seed, seed+1, ...)")
		jobs      = fs.Int("jobs", 0, "concurrent runs when -repeats > 1 (0 = GOMAXPROCS)")
		events    = fs.String("events", "", "write a JSON-lines event log of the run to this file (legacy format)")
		telemetry = fs.String("telemetry", "", "write the JSON run report (counters, phase timings) to this file")
		tracelog  = fs.String("tracelog", "", "write a leveled JSON-lines trace of the run to this file")
		progress  = fs.Duration("progress", 0, "print a progress line to stderr at this wall-clock period (0 = off)")
		inspect   = fs.String("inspect", "", "serve a live run inspector on this address (e.g. :6060): JSON telemetry at /snapshot, SSE progress at /events, pprof under /debug/pprof/")
		ckptDir   = fs.String("checkpoint-dir", "", "directory for crash-safe state: SIGINT/SIGTERM flushes a checkpoint there, and -resume continues from it")
		ckptEvery = fs.Duration("checkpoint-every", 0, "virtual-time period between periodic checkpoints (0 = flush only on interruption)")
		resume    = fs.Bool("resume", false, "continue an interrupted run from the state in -checkpoint-dir")
	)
	var prof obs.Profiler
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := stopProf(); err == nil {
			err = cerr
		}
	}()
	if *resume && *ckptDir == "" {
		return errors.New("-resume requires -checkpoint-dir")
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
	}
	// SIGINT/SIGTERM cancel the run gracefully: the engine finishes the
	// instant in flight, flushes its checkpoint, and returns ErrInterrupted.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// A telemetry report or a live inspector gets a registry for the whole
	// invocation: without one the engine turns its timers off, and the
	// trace_load span below and every run (repeats included) aggregate into
	// the same view.
	var reg *give2get.Metrics
	if *telemetry != "" || *inspect != "" {
		reg = give2get.NewMetrics()
	}

	var tr *give2get.Trace
	traceStart := time.Now()
	if *tracePath != "" {
		tr, err = give2get.OpenTrace(*tracePath)
		if err != nil {
			return err
		}
	} else {
		tr, err = give2get.GenerateTrace(give2get.Preset(*preset), *seed)
		if err != nil {
			return err
		}
	}
	if reg != nil {
		d := time.Since(traceStart)
		reg.Spans.Note(obs.SpanTraceLoad, d, d)
	}

	if *inspect != "" {
		insp := &obs.Inspector{Addr: *inspect, Metrics: reg, Label: tr.Name()}
		stopInsp, err := insp.Start()
		if err != nil {
			return err
		}
		defer func() {
			if cerr := stopInsp(); err == nil {
				err = cerr
			}
		}()
		fmt.Fprintf(stderr, "g2gsim: inspector on http://%s (snapshot: /snapshot, events: /events, pprof: /debug/pprof/)\n",
			insp.BoundAddr())
	}

	cfg := give2get.SimulationConfig{
		Trace:           tr,
		Protocol:        give2get.Protocol(*proto),
		TTL:             *ttl,
		Seed:            *seed,
		WindowStart:     *window,
		MessageInterval: *interval,
		OnlyOutsiders:   *outsiders,
		RealCrypto:      *realCrypt,
		Registry:        reg,
		Context:         ctx,
	}
	if *deviants > 0 {
		cfg.Deviation = give2get.Deviation(*deviation)
		for i := 0; i < *deviants && i < tr.Nodes(); i++ {
			// Deterministic spread across the population.
			cfg.Deviants = append(cfg.Deviants, (i*7+int(*seed))%tr.Nodes())
		}
		cfg.Deviants = dedupe(cfg.Deviants)
	}

	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Sink = give2get.NewLegacyEventSink(f)
	}
	if *tracelog != "" {
		f, err := os.Create(*tracelog)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.TraceJSON = f
	}
	if *progress > 0 {
		cfg.Progress = stderr
		cfg.ProgressInterval = *progress
	}
	if *audit {
		cfg.Audit = give2get.AuditConfig{Enabled: true}
	}

	if *repeats > 1 {
		scfg := give2get.SweepConfig{
			SimulationConfig: cfg, Repeats: *repeats, Jobs: *jobs,
		}
		if *ckptDir != "" {
			scfg.Journal = filepath.Join(*ckptDir, "sweep.journal")
			scfg.CheckpointDir = *ckptDir
			scfg.CheckpointEvery = *ckptEvery
			scfg.Resume = *resume
		}
		sweep, err := give2get.RunSweep(scfg)
		if err != nil {
			if errors.Is(err, give2get.ErrInterrupted) && *ckptDir != "" {
				fmt.Fprintf(stderr, "g2gsim: interrupted; state saved under %s (continue with -resume)\n", *ckptDir)
			}
			return err
		}
		fmt.Fprintf(stdout, "trace:       %s (%d nodes, %d contacts)\n", tr.Name(), tr.Nodes(), tr.Contacts())
		fmt.Fprintf(stdout, "protocol:    %s  ttl=%v  seeds=%d..%d\n", *proto, *ttl, *seed, *seed+int64(*repeats)-1)
		fmt.Fprintf(stdout, "success:     %.1f%% mean over %d repeats\n", sweep.SuccessRate, *repeats)
		fmt.Fprintf(stdout, "delay:       %v mean\n", sweep.MeanDelay.Round(time.Second))
		fmt.Fprintf(stdout, "cost:        %.2f replicas/msg total, %.2f at delivery\n",
			sweep.Cost, sweep.CostToDelivery)
		if *deviants > 0 {
			fmt.Fprintf(stdout, "deviants:    %d %ss (outsiders=%v)\n", len(cfg.Deviants), *deviation, *outsiders)
			fmt.Fprintf(stdout, "detection:   %.1f%% exposed mean\n", sweep.DetectionRate)
		}
		if *audit {
			// RunSweep promotes violations to errors, so reaching this point
			// means every repeat audited clean.
			fmt.Fprintf(stdout, "audit: ok (%d runs clean)\n", len(sweep.Runs))
		}
		return nil
	}

	ckptPath := ""
	if *ckptDir != "" {
		ckptPath = filepath.Join(*ckptDir, "run.ckpt")
		cfg.CheckpointPath = ckptPath
		cfg.CheckpointInterval = *ckptEvery
	}
	var res *give2get.Result
	if *resume {
		if _, statErr := os.Stat(ckptPath); errors.Is(statErr, os.ErrNotExist) {
			fmt.Fprintf(stderr, "g2gsim: no checkpoint at %s, starting fresh\n", ckptPath)
			res, err = give2get.Run(cfg)
		} else {
			res, err = give2get.Resume(ckptPath, cfg)
		}
	} else {
		res, err = give2get.Run(cfg)
	}
	if err != nil {
		if errors.Is(err, give2get.ErrInterrupted) && ckptPath != "" {
			fmt.Fprintf(stderr, "g2gsim: interrupted; checkpoint at %s (continue with -resume)\n", ckptPath)
		}
		return err
	}
	if ckptPath != "" {
		// A completed run needs no restart point; a stale one would make a
		// later -resume replay the wrong run.
		os.Remove(ckptPath)
	}
	fmt.Fprintf(stdout, "trace:       %s (%d nodes, %d contacts)\n", tr.Name(), tr.Nodes(), tr.Contacts())
	fmt.Fprintf(stdout, "protocol:    %s  ttl=%v  seed=%d\n", *proto, *ttl, *seed)
	fmt.Fprintf(stdout, "messages:    %d generated, %d delivered (%.1f%%)\n",
		res.Generated, res.Delivered, res.SuccessRate)
	fmt.Fprintf(stdout, "delay:       %v mean\n", res.MeanDelay.Round(time.Second))
	fmt.Fprintf(stdout, "cost:        %.2f replicas/msg total, %.2f at delivery\n",
		res.Cost, res.CostToDelivery)
	if *deviants > 0 {
		fmt.Fprintf(stdout, "deviants:    %d %ss (outsiders=%v)\n", len(cfg.Deviants), *deviation, *outsiders)
		fmt.Fprintf(stdout, "detection:   %.1f%% exposed, mean %v after TTL, %d false accusations\n",
			res.DetectionRate, res.MeanDetectionTime.Round(time.Second), res.FalseAccusations)
	}
	if rep := res.AuditReport; rep != nil {
		fmt.Fprintln(stdout, rep)
		if err := rep.Err(); err != nil {
			for _, v := range rep.Violations {
				fmt.Fprintln(stderr, "  ", v)
			}
			return err
		}
	}
	if *telemetry != "" {
		if err := writeTelemetry(*telemetry, res.Telemetry); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "telemetry:   %d events (%.0f events/s) -> %s\n",
			res.Telemetry.Sim.EventsFired, res.Telemetry.EventsPerSec(), *telemetry)
	}
	return nil
}

func writeTelemetry(path string, tel *give2get.Telemetry) error {
	b, err := json.MarshalIndent(tel, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func dedupe(in []int) []int {
	seen := make(map[int]struct{}, len(in))
	out := in[:0]
	for _, v := range in {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
