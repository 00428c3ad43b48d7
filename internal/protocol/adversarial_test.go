package protocol

import (
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
	"give2get/internal/wire"
)

// These tests poke the wire-level handlers directly with malformed or forged
// inputs: the handlers must refuse without changing state, because in the
// deployed system they would face arbitrary radios, not just our engine.

func g2gNodePair(t *testing.T) (*world, *g2gEpidemicNode, *g2gEpidemicNode) {
	t.Helper()
	w := newWorld(t, G2GEpidemic, 4, testParams(), nil)
	a, ok := w.nodes[0].(*g2gEpidemicNode)
	if !ok {
		t.Fatal("unexpected node type")
	}
	b, ok := w.nodes[1].(*g2gEpidemicNode)
	if !ok {
		t.Fatal("unexpected node type")
	}
	return w, a, b
}

func TestHandleRelayRequestRejectsForgery(t *testing.T) {
	_, a, b := g2gNodePair(t)
	h := g2gcrypto.Hash([]byte("m"))

	// Envelope signed by the wrong key (signer claims to be node 0 but the
	// signature is node 1's).
	forged := wire.Sign(b.self, sim.Second, wire.RelayRequest{Hash: h})
	forged.Signer = a.ID()
	if resp := b.handleRelayRequest(sim.Second, forged); resp != nil {
		t.Error("forged RELAY_RQST answered")
	}

	// Wrong body type entirely.
	wrongKind := wire.Sign(a.self, sim.Second, wire.RelayOK{Hash: h})
	if resp := b.handleRelayRequest(sim.Second, wrongKind); resp != nil {
		t.Error("RELAY_OK answered as RELAY_RQST")
	}
}

func TestHandleRelayTransferWithoutRequestStillSafe(t *testing.T) {
	// An initiator may skip the RELAY_RQST and push a transfer directly;
	// the receiver signs a PoR only for hashes it has not handled, and a
	// key reveal that decrypts to a mismatched hash must leave no state.
	w, a, b := g2gNodePair(t)
	h := w.generate(0, 0, 3)
	c := a.custody[h]

	key := newSessionKey(a.env.RNG)
	encrypted, err := g2gcrypto.EncryptPayload(key, []byte("not the message"), rngReader{a.env.RNG})
	if err != nil {
		t.Fatal(err)
	}
	transfer := wire.Sign(a.self, sim.Second, wire.RelayTransfer{
		Hash: h, GenAt: c.genAt, Encrypted: encrypted,
	})
	por := b.handleRelayTransfer(sim.Second, transfer)
	if por == nil {
		t.Fatal("transfer refused outright (PoR expected before key reveal)")
	}
	reveal := wire.Sign(a.self, sim.Second, wire.KeyReveal{Hash: h, Key: key})
	b.handleKeyReveal(sim.Second, reveal, a.ID())
	if _, ok := b.custody[h]; ok {
		t.Error("custody created for payload that does not match the advertised hash")
	}
	if _, seen := b.seen[h]; seen {
		t.Error("hash marked seen despite mismatched payload")
	}
}

func TestHandleKeyRevealWrongKeyLeavesNoState(t *testing.T) {
	w, a, b := g2gNodePair(t)
	h := w.generate(0, 0, 3)
	c := a.custody[h]

	key := newSessionKey(a.env.RNG)
	encrypted, err := g2gcrypto.EncryptPayload(key, c.raw, rngReader{a.env.RNG})
	if err != nil {
		t.Fatal(err)
	}
	transfer := wire.Sign(a.self, sim.Second, wire.RelayTransfer{
		Hash: h, GenAt: c.genAt, Encrypted: encrypted,
	})
	if por := b.handleRelayTransfer(sim.Second, transfer); por == nil {
		t.Fatal("transfer refused")
	}
	wrong := newSessionKey(a.env.RNG)
	reveal := wire.Sign(a.self, sim.Second, wire.KeyReveal{Hash: h, Key: wrong})
	b.handleKeyReveal(sim.Second, reveal, a.ID())
	if _, ok := b.custody[h]; ok {
		t.Error("custody created from an undecryptable payload")
	}
}

func TestHandleKeyRevealFromWrongPartyIgnored(t *testing.T) {
	w, a, b := g2gNodePair(t)
	h := w.generate(0, 0, 3)
	c := a.custody[h]

	key := newSessionKey(a.env.RNG)
	encrypted, err := g2gcrypto.EncryptPayload(key, c.raw, rngReader{a.env.RNG})
	if err != nil {
		t.Fatal(err)
	}
	transfer := wire.Sign(a.self, sim.Second, wire.RelayTransfer{
		Hash: h, GenAt: c.genAt, Encrypted: encrypted,
	})
	if por := b.handleRelayTransfer(sim.Second, transfer); por == nil {
		t.Fatal("transfer refused")
	}
	// Node 2 (not the handoff initiator) tries to complete the reveal.
	other, ok := w.nodes[2].(*g2gEpidemicNode)
	if !ok {
		t.Fatal("unexpected node type")
	}
	reveal := wire.Sign(other.self, sim.Second, wire.KeyReveal{Hash: h, Key: key})
	b.handleKeyReveal(sim.Second, reveal, other.ID())
	if _, ok := b.custody[h]; ok {
		t.Error("key reveal accepted from a third party")
	}
}

func TestPORChallengeUnknownHash(t *testing.T) {
	_, a, b := g2gNodePair(t)
	challenge := wire.Sign(a.self, sim.Second, wire.PORChallenge{
		Hash: g2gcrypto.Hash([]byte("never seen")),
	})
	if resp := b.handlePORChallenge(sim.Second, challenge); resp != nil {
		t.Error("challenge for unknown message answered")
	}
}

func TestEvaluateTestResponseRejectsDuplicatePORs(t *testing.T) {
	// A relay trying to pass the test with the same PoR twice (From two
	// "different" relays that are actually one) must fail.
	params := testParams()
	w := newWorld(t, G2GEpidemic, 5, params, nil)
	h := w.generate(0, 0, 4)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(2*sim.Minute, 1, 2) // relay 1 collects one genuine PoR
	n0, ok := w.nodes[0].(*g2gEpidemicNode)
	if !ok {
		t.Fatal("unexpected node type")
	}
	n1, ok := w.nodes[1].(*g2gEpidemicNode)
	if !ok {
		t.Fatal("unexpected node type")
	}
	c := n0.custody[h]
	var seed [16]byte
	duplicated := wire.Sign(n1.self, 3*sim.Minute, wire.PORResponse{
		First:  n1.custody[h].pors[0],
		Second: n1.custody[h].pors[0],
	})
	if n0.evaluateTestResponse(c, n1.ID(), seed, &duplicated) {
		t.Error("duplicate PoRs passed the test")
	}
}

func TestAcceptPoMFromThirdPartyBlacklists(t *testing.T) {
	w, a, b := g2gNodePair(t)
	_ = w
	// b signed a PoR; a assembles a valid PoM and node 2 receives it.
	por := wire.Sign(b.self, sim.Minute, wire.ProofOfRelay{
		Hash: g2gcrypto.Hash([]byte("m")), From: a.ID(), To: b.ID(),
	})
	pom := wire.Sign(a.self, 2*sim.Minute, wire.Misbehavior{
		Accused: b.ID(), Reason: wire.ReasonDropped, Evidence: []wire.Signed{por},
	})
	third := w.nodes[2]
	third.DeliverPoM(pom)
	if !third.Blacklisted(b.ID()) {
		t.Error("valid PoM did not blacklist the accused")
	}
	// The accused itself never self-blacklists.
	b.DeliverPoM(pom)
	if b.Blacklisted(b.ID()) {
		t.Error("accused blacklisted itself")
	}
}

func TestAcceptPoMRejectsInvalidEvidence(t *testing.T) {
	w, a, b := g2gNodePair(t)
	// Evidence signed by the accuser, not the accused: a framing attempt.
	por := wire.Sign(a.self, sim.Minute, wire.ProofOfRelay{
		Hash: g2gcrypto.Hash([]byte("m")), From: a.ID(), To: b.ID(),
	})
	pom := wire.Sign(a.self, 2*sim.Minute, wire.Misbehavior{
		Accused: b.ID(), Reason: wire.ReasonDropped, Evidence: []wire.Signed{por},
	})
	third := w.nodes[2]
	third.DeliverPoM(pom)
	if third.Blacklisted(b.ID()) {
		t.Error("framing PoM accepted")
	}
	// A PoM whose outer envelope does not verify is also ignored.
	good := wire.Sign(b.self, sim.Minute, wire.ProofOfRelay{From: a.ID(), To: b.ID()})
	bad := wire.Sign(a.self, 2*sim.Minute, wire.Misbehavior{
		Accused: b.ID(), Reason: wire.ReasonDropped, Evidence: []wire.Signed{good},
	})
	bad.Sig[0] ^= 1
	third.DeliverPoM(bad)
	if third.Blacklisted(b.ID()) {
		t.Error("PoM with broken outer signature accepted")
	}
}

func TestDelegationTransferWithoutFQClaimRefused(t *testing.T) {
	w := newWorld(t, G2GDelegationFrequency, 4, testParams(), nil)
	a, ok := w.nodes[0].(*g2gDelegationNode)
	if !ok {
		t.Fatal("unexpected node type")
	}
	b, ok := w.nodes[1].(*g2gDelegationNode)
	if !ok {
		t.Fatal("unexpected node type")
	}
	h := w.generate(frame1, 0, 3)
	c := a.custody[h]
	key := newSessionKey(a.env.RNG)
	encrypted, err := g2gcrypto.EncryptPayload(key, c.raw, rngReader{a.env.RNG})
	if err != nil {
		t.Fatal(err)
	}
	// Transfer without the preceding FQ_RQST/FQ_RESP exchange: the receiver
	// has no recorded claim and must refuse to sign a PoR.
	transfer := wire.Sign(a.self, frame1, wire.RelayTransfer{
		Hash: h, GenAt: c.genAt, Encrypted: encrypted,
	})
	if por := b.handleRelayTransfer(frame1, transfer); por != nil {
		t.Error("delegation transfer accepted without an FQ claim")
	}
}
