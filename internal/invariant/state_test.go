package invariant

import (
	"reflect"
	"testing"

	"give2get/internal/message"
	"give2get/internal/sim"
	"give2get/internal/wire"
)

// TestStateRoundTrip splits one event stream at an instant that still has
// unflushed digest records: an auditor restored from the captured state and
// fed the tail must finish on the same digest and report as the auditor
// that saw the whole stream.
func TestStateRoundTrip(t *testing.T) {
	head := func(a *Auditor) {
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Generated(h(2), message.MakeID(3, 1), 3, 4, sim.Second)
		a.Replicated(h(1), 1, 3, sim.Minute)
		a.Replicated(h(2), 3, 5, sim.Minute)
		a.Tested(3, true, sim.Minute)
	}
	tail := func(a *Auditor) {
		a.Replicated(h(1), 3, 4, sim.Minute) // same instant as the split
		a.Delivered(h(1), 2*sim.Minute)
		a.Tested(5, false, 3*sim.Minute)
	}

	whole := newTestAuditor(t, nil)
	head(whole)
	tail(whole)
	want := finalizeClean(whole)

	first := newTestAuditor(t, nil)
	head(first)
	st, err := first.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) == 0 {
		t.Fatal("split instant left no pending digest records; the test would not cover them")
	}
	resumed := newTestAuditor(t, nil)
	resumed.Generated(h(9), message.MakeID(7, 1), 7, 6, 0) // stale: Restore must replace it
	if err := resumed.Restore(st); err != nil {
		t.Fatal(err)
	}
	if again, err := resumed.State(); err != nil || !reflect.DeepEqual(again, st) {
		t.Fatalf("state did not round-trip (err %v)", err)
	}
	tail(resumed)
	got := finalizeClean(resumed)

	if got.Digest != want.Digest || got.Events != want.Events {
		t.Fatalf("resumed digest %s (%d events), want %s (%d events)",
			got.Digest, got.Events, want.Digest, want.Events)
	}
	if !reflect.DeepEqual(got.Deliveries, want.Deliveries) || got.TestsFailed != want.TestsFailed {
		t.Errorf("resumed report diverged:\n  whole   %+v\n  resumed %+v", want, got)
	}
}

// TestStateCarriesViolations checks that violations and detections survive a
// restore, so a resumed audit cannot come back clean after a failure.
func TestStateCarriesViolations(t *testing.T) {
	a := newTestAuditor(t, nil)
	a.Generated(h(1), message.MakeID(1, 1), 1, 1, 0) // self-addressed
	a.Detected(6, wire.ReasonDropped, h(1), sim.Minute, d1)
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	b := newTestAuditor(t, nil)
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	rep := finalizeClean(b)
	wantRule(t, rep, RuleSelfAddressed)
	if len(rep.Detections) != 1 || rep.Detections[0].Accused != 6 {
		t.Errorf("detections after restore = %+v, want node 6", rep.Detections)
	}
}

func TestRestoreRejectsBadHasher(t *testing.T) {
	a := newTestAuditor(t, nil)
	if err := a.Restore(State{Hasher: []byte("not a sha256 state")}); err == nil {
		t.Fatal("restored a corrupt hasher state")
	}
}
