package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"give2get/internal/engine"
	"give2get/internal/invariant"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// journalSpecs builds n audited specs over one shared trace, so every
// outcome carries a digest the resume tests can compare byte for byte.
func journalSpecs(tr *trace.Trace, n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		cfg := baseConfig(tr, DeriveSeed(5, i))
		cfg.Audit = &invariant.Options{Label: fmt.Sprintf("journal-%d", i)}
		specs[i] = Spec{Label: fmt.Sprintf("j%d", i), Config: cfg}
	}
	return specs
}

func mustDigests(t *testing.T, out []Outcome) []string {
	t.Helper()
	digests := make([]string, len(out))
	for i, o := range out {
		if o.Err != nil || o.Result == nil || o.Result.Audit == nil {
			t.Fatalf("outcome %d unusable: %+v", i, o)
		}
		digests[i] = o.Result.Audit.Digest
	}
	return digests
}

// TestJournalResumeSkipsCompleted completes a journaled sweep, then resumes
// it with configs that would fail validation if executed: every outcome must
// come back restored from the journal, never re-run, with the recorded
// results intact.
func TestJournalResumeSkipsCompleted(t *testing.T) {
	tr := testTrace(t)
	journal := filepath.Join(t.TempDir(), "sweep.journal")

	first, err := Run(journalSpecs(tr, 3), Options{Jobs: 2, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	want := mustDigests(t, first)

	// Poisoned configs prove restoration: executing any of them would error.
	poisoned := journalSpecs(tr, 3)
	for i := range poisoned {
		poisoned[i].Config.MessageInterval = -1
	}
	second, err := Run(poisoned, Options{Jobs: 2, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range second {
		if !o.Restored {
			t.Errorf("outcome %d was re-run, not restored", i)
		}
		if o.Result.Audit.Digest != want[i] {
			t.Errorf("outcome %d digest %s, journaled %s", i, o.Result.Audit.Digest, want[i])
		}
		if o.Result.Telemetry == nil {
			t.Errorf("outcome %d: restored result lost the telemetry contract", i)
		}
		if got := o.Result.Collector.Summarize(); got != first[i].Result.Summary {
			t.Errorf("outcome %d: restored collector summarizes %+v, want %+v", i, got, first[i].Result.Summary)
		}
		if !reflect.DeepEqual(o.Result.Usage, first[i].Result.Usage) {
			t.Errorf("outcome %d: restored usage diverged", i)
		}
	}
}

// TestJournalTornTailReruns truncates the journal mid-entry — the on-disk
// state a crash during append leaves behind — and resumes: intact entries
// restore, the torn one re-runs, and the sweep still converges on the same
// digests.
func TestJournalTornTailReruns(t *testing.T) {
	tr := testTrace(t)
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	specs := journalSpecs(tr, 2)

	first, err := Run(journalSpecs(tr, 2), Options{Jobs: 1, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	want := mustDigests(t, first)

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want header + 2 entries", len(lines))
	}
	// Keep the header and the first entry; tear the second mid-line.
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(journal, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := Run(specs, Options{Jobs: 1, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Restored {
		t.Error("intact entry 0 was not restored")
	}
	if out[1].Restored {
		t.Error("torn entry 1 was restored instead of re-run")
	}
	for i, d := range mustDigests(t, out) {
		if d != want[i] {
			t.Errorf("outcome %d digest %s, want %s", i, d, want[i])
		}
	}
}

// TestJournalMismatchRejected pins the header gate: a journal resumes only
// against the spec list it was written for.
func TestJournalMismatchRejected(t *testing.T) {
	tr := testTrace(t)
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	if _, err := Run(journalSpecs(tr, 2), Options{Jobs: 1, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	_, err := Run(journalSpecs(tr, 3), Options{Jobs: 1, Journal: journal, Resume: true})
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("resume against a different spec list: %v, want ErrJournalMismatch", err)
	}
	relabeled := journalSpecs(tr, 2)
	relabeled[1].Label = "renamed"
	_, err = Run(relabeled, Options{Jobs: 1, Journal: journal, Resume: true})
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("resume with relabeled specs: %v, want ErrJournalMismatch", err)
	}
}

// TestCancelledSweepResumesIdentical is the crash-safe sweep oracle: a
// journaled, checkpointed sweep is cancelled somewhere mid-flight, resumed,
// and every final outcome — restored, checkpoint-resumed, or cleanly rerun —
// must match the uninterrupted reference digests exactly.
func TestCancelledSweepResumesIdentical(t *testing.T) {
	tr := testTrace(t)
	ref, err := Run(journalSpecs(tr, 4), Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := mustDigests(t, ref)

	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.journal")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Land the cancellation somewhere inside the sweep; wherever it
		// falls — mid-run, between runs, or after the end — the resumed
		// sweep below must converge to the reference.
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	interrupted, err := Run(journalSpecs(tr, 4), Options{
		Jobs:            2,
		Journal:         journal,
		CheckpointDir:   dir,
		CheckpointEvery: 30 * sim.Minute,
		Context:         ctx,
	})
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("cancelled sweep returned a non-batch error: %v", err)
		}
		for i, o := range interrupted {
			if o.Err != nil && !errors.Is(o.Err, engine.ErrInterrupted) {
				t.Fatalf("outcome %d failed with a non-interruption: %v", i, o.Err)
			}
		}
	}

	out, err := Run(journalSpecs(tr, 4), Options{
		Jobs:          2,
		Journal:       journal,
		CheckpointDir: dir,
		Resume:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range mustDigests(t, out) {
		if d != want[i] {
			t.Errorf("outcome %d digest %s, want %s", i, d, want[i])
		}
	}
	// Completed runs clean up their restart points.
	leftover, err := filepath.Glob(filepath.Join(dir, "spec-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Errorf("checkpoints left after a completed sweep: %v", leftover)
	}
}
