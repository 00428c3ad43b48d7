package g2gcrypto

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"give2get/internal/trace"
)

// systems returns one instance of every provider for provider-generic tests.
func systems(t *testing.T, nodes int) map[string]System {
	t.Helper()
	real, err := NewReal(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFast(nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]System{"real": real, "fast": fast}
}

func TestSignVerify(t *testing.T) {
	for name, sys := range systems(t, 4) {
		t.Run(name, func(t *testing.T) {
			id, err := sys.Identity(1)
			if err != nil {
				t.Fatal(err)
			}
			data := []byte("relay request for H(m)")
			sig := id.Sign(data)
			if !sys.Verify(1, data, sig) {
				t.Error("valid signature rejected")
			}
			if sys.Verify(2, data, sig) {
				t.Error("signature attributed to the wrong node")
			}
			tampered := append([]byte{}, data...)
			tampered[0] ^= 1
			if sys.Verify(1, tampered, sig) {
				t.Error("signature verified over tampered data")
			}
			badSig := append(Signature{}, sig...)
			badSig[0] ^= 1
			if sys.Verify(1, data, badSig) {
				t.Error("tampered signature accepted")
			}
		})
	}
}

func TestSealOpen(t *testing.T) {
	for name, sys := range systems(t, 4) {
		t.Run(name, func(t *testing.T) {
			plaintext := []byte("sender=2 msgid=7 body=hello")
			box, err := sys.SealFor(3, plaintext)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(box, plaintext) {
				t.Error("sealed blob leaks the plaintext")
			}
			dest, err := sys.Identity(3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dest.Open(box)
			if err != nil {
				t.Fatalf("destination cannot open: %v", err)
			}
			if !bytes.Equal(got, plaintext) {
				t.Errorf("Open = %q, want %q", got, plaintext)
			}
			// A relay (any non-destination) must fail to open.
			relay, err := sys.Identity(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := relay.Open(box); err == nil {
				t.Error("non-destination opened the sealed blob")
			}
			// Corruption must be detected.
			box[len(box)-1] ^= 1
			if _, err := dest.Open(box); !errors.Is(err, ErrBadCiphertext) {
				t.Errorf("corrupted blob: err = %v, want ErrBadCiphertext", err)
			}
		})
	}
}

func TestSealOpenEmptyAndLarge(t *testing.T) {
	for name, sys := range systems(t, 2) {
		t.Run(name, func(t *testing.T) {
			id, err := sys.Identity(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{0, 1, 31, 32, 33, 4096} {
				plaintext := bytes.Repeat([]byte{0xAB}, size)
				box, err := sys.SealFor(0, plaintext)
				if err != nil {
					t.Fatalf("seal %d bytes: %v", size, err)
				}
				got, err := id.Open(box)
				if err != nil {
					t.Fatalf("open %d bytes: %v", size, err)
				}
				if !bytes.Equal(got, plaintext) {
					t.Errorf("roundtrip %d bytes failed", size)
				}
			}
		})
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	for name, sys := range systems(t, 2) {
		t.Run(name, func(t *testing.T) {
			if _, err := sys.Identity(9); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("Identity(9): %v", err)
			}
			if _, err := sys.SealFor(trace.NodeID(-1), []byte("x")); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("SealFor(-1): %v", err)
			}
			if sys.Verify(9, []byte("x"), Signature("y")) {
				t.Error("Verify for unknown node returned true")
			}
		})
	}
	if _, err := NewReal(0, nil); err == nil {
		t.Error("NewReal(0) accepted")
	}
	if _, err := NewFast(-1, 0); err == nil {
		t.Error("NewFast(-1) accepted")
	}
}

func TestFastDeterministic(t *testing.T) {
	a, err := NewFast(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFast(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	idA, _ := a.Identity(2)
	idB, _ := b.Identity(2)
	if !bytes.Equal(idA.Sign([]byte("x")), idB.Sign([]byte("x"))) {
		t.Error("same seed produced different signing secrets")
	}
	c, err := NewFast(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	idC, _ := c.Identity(2)
	if bytes.Equal(idA.Sign([]byte("x")), idC.Sign([]byte("x"))) {
		t.Error("different seeds produced identical signing secrets")
	}
}

func TestPayloadEncryptDecrypt(t *testing.T) {
	key, err := NewSessionKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the message m, handed over before the key is revealed")
	box, err := EncryptPayload(key, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(box, msg) {
		t.Error("payload encryption leaks plaintext")
	}
	got, err := DecryptPayload(key, box)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("payload roundtrip failed")
	}
	var wrong SessionKey
	if _, err := DecryptPayload(wrong, box); !errors.Is(err, ErrBadCiphertext) {
		t.Errorf("wrong key: err = %v, want ErrBadCiphertext", err)
	}
	if _, err := DecryptPayload(key, box[:4]); !errors.Is(err, ErrBadCiphertext) {
		t.Errorf("truncated: err = %v, want ErrBadCiphertext", err)
	}
}

func TestHeavyHMAC(t *testing.T) {
	msg := []byte("message under challenge")
	seed := []byte("random seed s")
	resp := HeavyHMAC(msg, seed, 100)
	if !VerifyHeavyHMAC(msg, seed, 100, resp) {
		t.Error("valid response rejected")
	}
	if VerifyHeavyHMAC(msg, []byte("other seed"), 100, resp) {
		t.Error("response verified under a different seed")
	}
	if VerifyHeavyHMAC(msg, seed, 101, resp) {
		t.Error("response verified under a different iteration count")
	}
	if VerifyHeavyHMAC([]byte("other message"), seed, 100, resp) {
		t.Error("response verified over a different message")
	}
	// iterations < 1 is clamped, not a panic.
	if HeavyHMAC(msg, seed, 0) != HeavyHMAC(msg, seed, 1) {
		t.Error("iteration clamp broken")
	}
}

// TestHMACScratchMatchesReference is the metamorphic pin for the reusable
// scratch: a single scratch reused across calls of random shapes must stay
// bit-identical to both the package-level HeavyHMAC and the hmac.New
// reference. Reuse is the point — state leaking between calls is exactly the
// bug class a reused scratch can introduce.
func TestHMACScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var scratch HMACScratch
	for i := 0; i < 200; i++ {
		// Lengths hover around the SHA-256 block (64) and output (32)
		// boundaries, where padding and key-hashing behavior changes.
		msg := make([]byte, rng.Intn(160))
		seed := make([]byte, rng.Intn(96))
		rng.Read(msg)
		rng.Read(seed)
		iterations := 1 + rng.Intn(8)

		got := scratch.HeavyHMAC(msg, seed, iterations)
		if want := referenceHeavyHMAC(msg, seed, iterations); got != want {
			t.Fatalf("case %d (len(msg)=%d len(seed)=%d iters=%d): scratch diverged from hmac.New:\n got %x\nwant %x",
				i, len(msg), len(seed), iterations, got, want)
		}
		if want := HeavyHMAC(msg, seed, iterations); got != want {
			t.Fatalf("case %d: scratch diverged from the package function", i)
		}
	}
}

func TestHashStable(t *testing.T) {
	if Hash([]byte("a")) == Hash([]byte("b")) {
		t.Error("distinct inputs collided")
	}
	if Hash([]byte("a")) != Hash([]byte("a")) {
		t.Error("hash not deterministic")
	}
}

// Property: for both providers, signatures verify for the signer and sealing
// round-trips for arbitrary plaintexts.
func TestProvidersRoundTripProperty(t *testing.T) {
	real, err := NewReal(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFast(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, sys := range map[string]System{"real": real, "fast": fast} {
		sys := sys
		t.Run(name, func(t *testing.T) {
			property := func(data []byte, node uint8) bool {
				n := trace.NodeID(node % 3)
				id, err := sys.Identity(n)
				if err != nil {
					return false
				}
				if !sys.Verify(n, data, id.Sign(data)) {
					return false
				}
				box, err := sys.SealFor(n, data)
				if err != nil {
					return false
				}
				got, err := id.Open(box)
				if err != nil {
					return false
				}
				return bytes.Equal(got, data)
			}
			cfg := &quick.Config{MaxCount: 25}
			if err := quick.Check(property, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}
