package metrics

import (
	"reflect"
	"testing"

	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// TestCollectorStateRoundTrip checks that State captures everything the
// summaries read, so a restored collector reports exactly what the original
// did, and that Restore replaces rather than merges.
func TestCollectorStateRoundTrip(t *testing.T) {
	c := NewCollector()
	c.Generated(digest(1), 0, 0, 1, 0)
	c.Generated(digest(2), 0, 3, 2, 10*sim.Second)
	c.Generated(digest(3), 0, 3, 4, 20*sim.Second)
	c.Replicated(digest(1), 0, 1, sim.Minute)
	c.Replicated(digest(1), 1, 2, sim.Minute)
	c.Replicated(digest(2), 3, 2, sim.Minute)
	c.Delivered(digest(1), 2*sim.Minute)
	c.Delivered(digest(2), 4*sim.Minute)
	c.Detected(5, wire.ReasonDropped, digest(1), 40*sim.Minute, 30*sim.Minute)
	c.Detected(2, wire.ReasonLied, digest(2), 20*sim.Minute, 30*sim.Minute)
	c.Tested(5, false, 0)
	c.Tested(1, true, 0)

	st := c.State()
	got := NewCollector()
	got.Generated(digest(9), 0, 7, 8, 0) // stale entry Restore must drop
	got.Restore(st)

	if !reflect.DeepEqual(got.State(), st) {
		t.Fatalf("state did not round-trip:\n  captured %+v\n  restored %+v", st, got.State())
	}
	if got.Summarize() != c.Summarize() {
		t.Errorf("summary diverged:\n  original %+v\n  restored %+v", c.Summarize(), got.Summarize())
	}
	deviants := []trace.NodeID{2, 5, 6}
	if !reflect.DeepEqual(got.SummarizeDetection(deviants), c.SummarizeDetection(deviants)) {
		t.Error("detection summary diverged after restore")
	}
	want := map[trace.NodeID]SourceStats{0: {1, 1}, 3: {2, 1}}
	if ps := got.PerSource(); !reflect.DeepEqual(ps, want) {
		t.Errorf("per-source stats = %+v, want %+v", ps, want)
	}
}
