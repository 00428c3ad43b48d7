// Command g2gexp regenerates the paper's tables and figures.
//
// Usage:
//
//	g2gexp -experiment fig3          # one experiment (see -list)
//	g2gexp -experiment all -quick    # everything, reduced workload
//	g2gexp -list                     # show experiment ids
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
	"strings"
	"syscall"

	"give2get/internal/engine"
	"give2get/internal/experiments"
	"give2get/internal/obs"
	"give2get/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "g2gexp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("g2gexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment id, or 'all'")
		quick      = fs.Bool("quick", false, "reduced workload (faster, coarser sweeps)")
		tiny       = fs.Bool("tiny", false, "unit-test scale workload (implies -quick)")
		audit      = fs.Bool("audit", false, "run the invariant auditor on every simulation; any violation fails the experiment")
		seed       = fs.Int64("seed", 1, "seed for workload and deviant selection")
		repeats    = fs.Int("repeats", 1, "average each measurement over this many seeds")
		jobs       = fs.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS); output is identical at any value")
		format     = fs.String("format", "text", "output format: text or csv")
		verbose    = fs.Bool("v", false, "log every completed run")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		tracePath  = fs.String("trace", "", "contact trace file, text or binary .g2gt, replacing every scenario's synthetic dataset")
		telemetry  = fs.String("telemetry", "", "write an aggregated JSON run report over all runs to this file")
		inspect    = fs.String("inspect", "", "serve a live experiment inspector on this address (e.g. :6060): JSON telemetry at /snapshot, SSE progress at /events, pprof under /debug/pprof/")
		ckptDir    = fs.String("checkpoint-dir", "", "directory for crash-safe state: completed runs are journaled there (one subdirectory per experiment), SIGINT/SIGTERM flushes in-flight checkpoints, and -resume continues")
		ckptEvery  = fs.Duration("checkpoint-every", 0, "virtual-time period between periodic per-run checkpoints (0 = flush only on interruption)")
		resume     = fs.Bool("resume", false, "continue an interrupted experiment from the state in -checkpoint-dir")
		retries    = fs.Int("retries", 0, "re-attempt failed simulations this many times with exponential backoff")
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
	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return nil
	}

	if *resume && *ckptDir == "" {
		return errors.New("-resume requires -checkpoint-dir")
	}
	// SIGINT/SIGTERM cancel the sweep gracefully: in-flight runs flush
	// their checkpoints and the journal keeps everything already finished.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := experiments.Options{Quick: *quick, Tiny: *tiny, Audit: *audit, Seed: *seed, Repeats: *repeats, Jobs: *jobs, TracePath: *tracePath,
		Context: ctx, CheckpointEvery: sim.Time(*ckptEvery), Resume: *resume, Retries: *retries}
	if *verbose {
		opts.Progress = stderr
	}
	if *telemetry != "" || *inspect != "" {
		// The inspector needs a live registry even when no report file was
		// asked for; the shared registry aggregates every run of the sweep.
		opts.Telemetry = obs.NewMetrics()
	}
	if *inspect != "" {
		insp := &obs.Inspector{Addr: *inspect, Metrics: opts.Telemetry, Label: *experiment}
		stopInsp, err := insp.Start()
		if err != nil {
			return err
		}
		defer func() {
			if cerr := stopInsp(); err == nil {
				err = cerr
			}
		}()
		fmt.Fprintf(stderr, "g2gexp: inspector on http://%s (snapshot: /snapshot, events: /events, pprof: /debug/pprof/)\n",
			insp.BoundAddr())
	}

	ids := experiments.IDs()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if *ckptDir != "" {
			// One journal + checkpoint namespace per experiment, so a
			// multi-experiment invocation stays resumable as a whole.
			opts.CheckpointDir = filepath.Join(*ckptDir, id)
			if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
				return err
			}
		}
		tables, err := experiments.Run(id, opts)
		if err != nil {
			if errors.Is(err, engine.ErrInterrupted) && *ckptDir != "" {
				fmt.Fprintf(stderr, "g2gexp: interrupted; state saved under %s (continue with -resume)\n", *ckptDir)
			}
			return err
		}
		for _, tbl := range tables {
			switch *format {
			case "csv":
				if err := tbl.RenderCSV(stdout); err != nil {
					return err
				}
			case "text":
				if err := tbl.Render(stdout); err != nil {
					return err
				}
			default:
				return fmt.Errorf("unknown format %q (want text or csv)", *format)
			}
			fmt.Fprintln(stdout)
		}
	}
	if *telemetry != "" {
		b, err := json.MarshalIndent(opts.Telemetry.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*telemetry, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
