package g2gcrypto

import (
	"bytes"
	"testing"

	"give2get/internal/obs"
)

// poisoned is a digest no real proof produces in these tests: planting it in
// the memo after a computation makes a hit (poison returned) observable
// apart from a recomputation (the true digest returned).
var poisoned = Digest{0xde, 0xad}

// TestProofMemoCoalesces pins when the memo may answer without computing:
// an honest relay/source pair (byte-identical copies, same seed and
// iterations) computes once, and any difference in the bytes hashed —
// a one-byte-tampered copy, another seed, another iteration count — misses
// and recomputes.
func TestProofMemoCoalesces(t *testing.T) {
	stored := []byte("stored message under challenge")
	seed := []byte("challenge seed s")
	const iters = 16
	tampered := bytes.Clone(stored)
	tampered[len(tampered)/2] ^= 0x01

	cases := []struct {
		name            string
		msg, seed       []byte
		iterations      int
		wantComputation bool
	}{
		{"honest-pair", stored, seed, iters, false},
		{"tampered-copy", tampered, seed, iters, true},
		{"other-seed", stored, []byte("another seed"), iters, true},
		{"other-iterations", stored, seed, iters + 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m ProofMemo
			// The relay proves over its own copy, which it may edit after
			// answering: the memo must have copied the bytes it hashed.
			relayCopy := bytes.Clone(stored)
			if got := m.HeavyHMAC(nil, nil, relayCopy, seed, iters); got != HeavyHMAC(stored, seed, iters) {
				t.Fatal("first call returned a wrong proof")
			}
			m.out = poisoned
			relayCopy[0] ^= 0xff

			got := m.HeavyHMAC(nil, nil, bytes.Clone(tc.msg), tc.seed, tc.iterations)
			if tc.wantComputation {
				if got != HeavyHMAC(tc.msg, tc.seed, tc.iterations) {
					t.Errorf("miss returned %x, want the recomputed proof", got)
				}
			} else if got != poisoned {
				t.Errorf("honest recomputation was not served by the memo")
			}
		})
	}
}

// TestProofMemoTelemetry pins the reconciliation contract: every call notes
// one heavy-HMAC operation with its iterations and one crypto span, whether
// it computed or hit, and a hit is charged zero wall time. Nil sinks must not
// panic.
func TestProofMemoTelemetry(t *testing.T) {
	var st obs.CryptoStats
	var spans obs.SpanStats
	rec := obs.NewSpanRecorder(&spans)
	var m ProofMemo
	msg, seed := []byte("message"), []byte("seed")

	d := m.HeavyHMAC(&st, rec, msg, seed, 10)
	if d != HeavyHMAC(msg, seed, 10) {
		t.Fatal("memo proof differs from plain HeavyHMAC")
	}
	afterMiss := st.HeavyHMAC.Total()
	if m.HeavyHMAC(&st, rec, msg, seed, 10) != d {
		t.Fatal("hit returned a different proof")
	}
	if got := st.HeavyHMAC.Count(); got != 2 {
		t.Errorf("heavy HMAC count = %d, want 2", got)
	}
	if got := st.HeavyHMACIterations.Load(); got != 20 {
		t.Errorf("iterations = %d, want 20", got)
	}
	if got := st.HeavyHMAC.Total(); got != afterMiss {
		t.Errorf("hit charged %v of wall time, want 0", got-afterMiss)
	}
	if got := spans.Count(obs.SpanCrypto); got != 2 {
		t.Errorf("crypto spans = %d, want 2", got)
	}

	var bare ProofMemo
	if bare.HeavyHMAC(nil, nil, msg, seed, 1) != HeavyHMAC(msg, seed, 1) {
		t.Fatal("nil-sink memo proof differs")
	}
}

// FuzzProofMemo drives the memo through arbitrary call sequences — repeats,
// in-place edits of the caller's message (the aliasing bug class), new seeds
// and new iteration counts — and requires every answer to equal HeavyHMAC
// over the same input.
func FuzzProofMemo(f *testing.F) {
	f.Add([]byte("message"), []byte("seed"), 4, []byte{0, 0, 1, 0})
	f.Add([]byte{}, []byte{}, 0, []byte{3, 0, 2})
	f.Add([]byte("m"), []byte("a seed that is much longer than one SHA-256 block, to force key hashing"), -3, []byte{2, 2, 1, 1, 0})
	f.Add([]byte{0xff, 0x00, 0xff}, []byte{0x36, 0x5c}, 1, []byte{1, 0, 3, 0, 1})
	f.Fuzz(func(t *testing.T, msg, seed []byte, iterations int, ops []byte) {
		if iterations > 64 {
			iterations = 64 // keep the fuzz fast; clamping below 1 is HeavyHMAC's job
		}
		if len(ops) > 32 {
			ops = ops[:32]
		}
		var m ProofMemo
		for i, op := range ops {
			switch op % 4 {
			case 1: // edit the caller's message in place
				if len(msg) > 0 {
					msg[int(op)%len(msg)] ^= op | 1
				}
			case 2: // a fresh challenge seed
				seed = append(bytes.Clone(seed), op)
			case 3: // another iteration count
				iterations = iterations%64 + 1
			}
			if got, want := m.HeavyHMAC(nil, nil, msg, seed, iterations), HeavyHMAC(msg, seed, iterations); got != want {
				t.Fatalf("call %d (op %d): memo = %x, HeavyHMAC = %x", i, op%4, got, want)
			}
		}
	})
}
