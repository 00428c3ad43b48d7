package protocol_test

import (
	"bytes"
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/invariant"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// TestSessionWithTwoTests runs one audited session in which a source tests
// the same relay on two messages it handed over, so every challenge, verdict
// and proof of misbehavior of the session interleaves in one test phase. A
// dropper must fail both tests and be reported twice, in sorted message-digest
// order; an honest relay that still stores both copies must pass both with
// storage proofs. Either way the invariant auditor must find nothing wrong.
func TestSessionWithTwoTests(t *testing.T) {
	cases := []struct {
		name      string
		deviation protocol.Deviation
		failed    int
	}{
		{"dropper", protocol.Dropper, 2},
		{"honest-storage-proofs", protocol.Honest, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const population = 3
			const source, relay, dest trace.NodeID = 0, 1, 2
			params := protocol.DefaultParams(30 * sim.Minute)
			sys, err := g2gcrypto.NewFast(population, 7)
			if err != nil {
				t.Fatal(err)
			}
			var deviants []trace.NodeID
			if tc.deviation != protocol.Honest {
				deviants = []trace.NodeID{relay}
			}
			auditor := invariant.New(invariant.Config{
				Sys: sys, Params: params, Population: population,
				Deviants: deviants, Deviation: tc.deviation, G2G: true,
			})
			env, err := protocol.NewEnv(sys, params, auditor, sim.NewRNG(3))
			if err != nil {
				t.Fatal(err)
			}
			m := obs.NewMetrics()
			env.SetMetrics(m)
			var nodes []protocol.Node
			var poms []wire.Signed
			env.Broadcast = func(pom wire.Signed) {
				poms = append(poms, pom)
				for _, n := range nodes {
					n.DeliverPoM(pom)
				}
			}
			for i := trace.NodeID(0); i < population; i++ {
				id, err := sys.Identity(i)
				if err != nil {
					t.Fatal(err)
				}
				var b protocol.Behavior
				if i == relay {
					b.Deviation = tc.deviation
				}
				n, err := protocol.New(protocol.G2GEpidemic, env, id, b)
				if err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, n)
			}
			session := func(at sim.Time) {
				t.Helper()
				if _, err := nodes[source].RunSession(at, nodes[relay]); err != nil {
					t.Fatal(err)
				}
				if _, err := nodes[relay].RunSession(at, nodes[source]); err != nil {
					t.Fatal(err)
				}
			}

			for _, body := range []string{"first", "second"} {
				if err := nodes[source].Generate(0, dest, []byte(body)); err != nil {
					t.Fatal(err)
				}
			}
			session(sim.Minute)                 // the relay takes both messages
			session(params.Delta1 + sim.Minute) // the source tests both

			var usageIterations int64
			for _, n := range nodes {
				usageIterations += n.UsageSnapshot().HeavyHMACIterations
			}
			rep := auditor.Finalize(invariant.Finalization{
				SummaryGenerated:     2,
				SummaryReplicas:      2,
				SummaryTestsRun:      2,
				SummaryTestsFailed:   tc.failed,
				UsageHeavyIterations: usageIterations,
				Blacklisted: func(holder, accused trace.NodeID) bool {
					return nodes[holder].Blacklisted(accused)
				},
				EndedAt: params.Delta1 + sim.Minute,
			})
			if !rep.Ok() {
				t.Fatalf("audit violations: %v", rep.Violations)
			}
			if rep.TestsRun != 2 || rep.TestsFailed != tc.failed {
				t.Fatalf("tests run/failed = %d/%d, want 2/%d", rep.TestsRun, rep.TestsFailed, tc.failed)
			}
			if got := m.Protocol.TestsStarted.Load(); got != 2 {
				t.Errorf("tests started (telemetry) = %d, want 2", got)
			}

			if tc.failed == 0 {
				if len(poms) != 0 {
					t.Fatalf("honest relay reported %d times", len(poms))
				}
				// The relay's proof and the source's check are four notes of
				// the heavy HMAC, with iterations reconciled against usage.
				if got := m.Crypto.HeavyHMAC.Count(); got != 4 {
					t.Errorf("heavy HMAC calls = %d, want 4", got)
				}
				if got, want := m.Crypto.HeavyHMACIterations.Load(), int64(4*params.HeavyHMACIterations); got != want {
					t.Errorf("heavy HMAC iterations = %d, want %d", got, want)
				}
				return
			}
			if len(poms) != 2 || len(rep.Detections) != 2 {
				t.Fatalf("PoM broadcasts = %d, detections = %d, want 2 each", len(poms), len(rep.Detections))
			}
			var hashes []g2gcrypto.Digest
			for i, pom := range poms {
				body, ok := pom.Body.(wire.Misbehavior)
				if !ok || body.Accused != relay || body.Reason != wire.ReasonDropped || len(body.Evidence) == 0 {
					t.Fatalf("PoM %d: %+v", i, pom.Body)
				}
				por, ok := body.Evidence[0].Body.(wire.ProofOfRelay)
				if !ok {
					t.Fatalf("PoM %d evidence is %T, want a proof of relay", i, body.Evidence[0].Body)
				}
				hashes = append(hashes, por.Hash)
			}
			if bytes.Compare(hashes[0][:], hashes[1][:]) >= 0 {
				t.Errorf("PoMs not in sorted digest order: %x then %x", hashes[0][:4], hashes[1][:4])
			}
			if !nodes[source].Blacklisted(relay) || !nodes[dest].Blacklisted(relay) {
				t.Error("the PoM broadcast did not blacklist the dropper")
			}
		})
	}
}
