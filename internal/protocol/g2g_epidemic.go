package protocol

import (
	"fmt"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// g2gEpidemicNode implements G2G Epidemic Forwarding (Section IV): the relay
// phase of Fig. 1 (encrypt-then-reveal handoffs producing signed proofs of
// relay), the sender-driven test phase of Fig. 2 (two PoRs or a heavy-HMAC
// storage proof), the Δ1/Δ2 timeouts, and proof-of-misbehavior broadcasts.
type g2gEpidemicNode struct {
	base
	seen    map[g2gcrypto.Digest]struct{}
	custody map[g2gcrypto.Digest]*g2gCustody
	// tests holds, per message this node originated, the relays it must
	// challenge after Δ1.
	tests map[g2gcrypto.Digest][]*pendingTest
	// pendingIn holds relay-phase handoffs between the RELAY and KEY steps.
	pendingIn map[g2gcrypto.Digest]*pendingTransfer
	// custodyOrder/testsOrder mirror the custody/tests keys in sorted order
	// (see orderedInsert); the relay and test phases iterate them instead of
	// re-sorting per contact.
	custodyOrder []g2gcrypto.Digest
	testsOrder   []g2gcrypto.Digest
	seq          uint32
}

// g2gCustody is this node's state for one message it has handled.
type g2gCustody struct {
	msg   *message.Message
	raw   []byte // marshalled message: heavy-HMAC input; nil once discardable
	hash  g2gcrypto.Digest
	genAt sim.Time
	// isSource marks the originator (it runs the test phase and keeps raw
	// until Δ2 to verify storage proofs).
	isSource bool
	// isDest marks the destination (it neither relays on nor is tested).
	isDest bool
	// dropped marks a deviating custodian that discarded the payload.
	dropped bool
	// pors are the proofs of relay collected from onward handoffs; they are
	// this node's defence in the test phase.
	pors      []wire.Signed
	relayedTo map[trace.NodeID]struct{}
	// relayCount counts handoffs to non-destination relays: deliveries to
	// the destination do not consume the fan-out budget.
	relayCount int
}

type pendingTest struct {
	relay  trace.NodeID
	por    wire.Signed // the relay's handoff PoR: the PoM evidence if it fails
	tested bool
}

type pendingTransfer struct {
	from      trace.NodeID
	fm        message.Quality
	genAt     sim.Time
	encrypted []byte
}

var _ Node = (*g2gEpidemicNode)(nil)

func newG2GEpidemicNode(env *Env, self g2gcrypto.Identity, behavior Behavior) *g2gEpidemicNode {
	return &g2gEpidemicNode{
		base:      newBase(env, self, behavior),
		seen:      make(map[g2gcrypto.Digest]struct{}),
		custody:   make(map[g2gcrypto.Digest]*g2gCustody),
		tests:     make(map[g2gcrypto.Digest][]*pendingTest),
		pendingIn: make(map[g2gcrypto.Digest]*pendingTransfer),
	}
}

// Generate implements Node.
func (n *g2gEpidemicNode) Generate(now sim.Time, dest trace.NodeID, body []byte) error {
	if dest == n.ID() {
		return fmt.Errorf("protocol: node %d generating a message to itself", n.ID())
	}
	n.seq++
	id := message.MakeID(n.ID(), n.seq)
	m, err := message.New(n.env.Sys, n.self, dest, id, body)
	if err != nil {
		return err
	}
	h := m.Hash()
	n.seen[h] = struct{}{}
	n.custody[h] = &g2gCustody{
		msg: m, raw: m.Marshal(), hash: h, genAt: now,
		isSource:  true,
		relayedTo: make(map[trace.NodeID]struct{}),
	}
	orderedInsert(&n.custodyOrder, h)
	n.env.Observer.Generated(h, id, n.ID(), dest, now)
	return nil
}

// ObserveMeeting implements Node. G2G Epidemic keeps no quality state.
func (n *g2gEpidemicNode) ObserveMeeting(sim.Time, trace.NodeID) {}

// DeliverPoM implements Node.
func (n *g2gEpidemicNode) DeliverPoM(pom wire.Signed) { n.acceptPoM(pom) }

// RunSession implements Node: first the test phase for any pending
// challenges against this peer, then the relay phase.
func (n *g2gEpidemicNode) RunSession(now sim.Time, peer Node) (bool, error) {
	other, ok := peer.(*g2gEpidemicNode)
	if !ok {
		return false, fmt.Errorf("%w: %T vs %T", ErrProtocolMismatch, n, peer)
	}
	n.expire(now)
	n.testPhase(now, other)
	return n.relayPhase(now, other), nil
}

// --- test phase (Fig. 2) ---

func (n *g2gEpidemicNode) testPhase(now sim.Time, other *g2gEpidemicNode) {
	n.env.spans.Enter(obs.SpanTest)
	defer n.env.spans.Exit()
	n.digestScratch = append(n.digestScratch[:0], n.testsOrder...)
	for _, h := range n.digestScratch {
		pending := n.tests[h]
		c, ok := n.custody[h]
		if !ok {
			continue
		}
		// Only the source tests, and only inside the (Δ1, Δ2) window.
		if now < c.genAt.Add(n.env.Params.Delta1) || now >= c.genAt.Add(n.env.Params.Delta2) {
			continue
		}
		for _, pt := range pending {
			if pt.tested || pt.relay != other.ID() {
				continue
			}
			pt.tested = true
			n.noteTestStarted()
			var seed [16]byte
			n.env.RNG.Bytes(seed[:])
			challenge := n.signed(now, wire.PORChallenge{Hash: h, Seed: seed})
			// The PoR span covers both sides of the proof: the challenged
			// relay producing it and the source verifying it.
			n.env.spans.Enter(obs.SpanPoR)
			resp := other.handlePORChallenge(now, challenge)
			passed := n.evaluateTestResponse(c, other.ID(), seed, resp)
			n.env.spans.Exit()
			n.noteTested(passed)
			n.env.Observer.Tested(other.ID(), passed, now)
			if !passed {
				n.reportMisbehavior(now, other.ID(), wire.ReasonDropped,
					[]wire.Signed{pt.por}, h, c.genAt.Add(n.env.Params.Delta1))
			}
		}
	}
}

// evaluateTestResponse checks a challenge answer: either two verifiable
// proofs of relay for this message, or the heavy HMAC over the full message
// under the challenge seed.
func (n *g2gEpidemicNode) evaluateTestResponse(c *g2gCustody, relay trace.NodeID,
	seed [16]byte, resp *wire.Signed) bool {

	if resp == nil || resp.Signer != relay || !n.verified(*resp) {
		return false
	}
	switch body := resp.Body.(type) {
	case wire.PORResponse:
		return n.validPORPair(c, relay, body)
	case wire.StoredResponse:
		if body.Hash != c.hash || body.Seed != seed || c.raw == nil {
			return false
		}
		return n.verifyHeavyHMAC(c.raw, seed[:], n.env.Params.HeavyHMACIterations, body.MAC)
	default:
		return false
	}
}

func (n *g2gEpidemicNode) validPORPair(c *g2gCustody, relay trace.NodeID, resp wire.PORResponse) bool {
	first, ok1 := resp.First.Body.(wire.ProofOfRelay)
	second, ok2 := resp.Second.Body.(wire.ProofOfRelay)
	if !ok1 || !ok2 {
		return false
	}
	if !n.verified(resp.First) || !n.verified(resp.Second) {
		return false
	}
	// Each PoR must be signed by the node it names as the new custodian.
	if resp.First.Signer != first.To || resp.Second.Signer != second.To {
		return false
	}
	if first.Hash != c.hash || second.Hash != c.hash {
		return false
	}
	if first.From != relay || second.From != relay {
		return false
	}
	// Two *distinct* onward relays, neither being the relay itself.
	if first.To == second.To || first.To == relay || second.To == relay {
		return false
	}
	return true
}

// handlePORChallenge is the challenged node's side: produce two PoRs, or the
// storage proof, or fail.
func (n *g2gEpidemicNode) handlePORChallenge(now sim.Time, challenge wire.Signed) *wire.Signed {
	body, ok := challenge.Body.(wire.PORChallenge)
	if !ok || !n.verified(challenge) {
		return nil
	}
	c, ok := n.custody[body.Hash]
	if !ok {
		return nil
	}
	if len(c.pors) >= 2 {
		resp := n.signed(now, wire.PORResponse{First: c.pors[0], Second: c.pors[1]})
		return &resp
	}
	if c.raw != nil {
		mac := n.heavyHMAC(c.raw, body.Seed[:], n.env.Params.HeavyHMACIterations)
		resp := n.signed(now, wire.StoredResponse{Hash: body.Hash, Seed: body.Seed, MAC: mac})
		return &resp
	}
	// Dropped the message and has no proofs: cannot comply.
	return nil
}

// --- relay phase (Fig. 1) ---

func (n *g2gEpidemicNode) relayPhase(now sim.Time, other *g2gEpidemicNode) bool {
	n.env.spans.Enter(obs.SpanRelay)
	defer n.env.spans.Exit()
	transferred := false
	// Snapshot the maintained order: relayOne may append to n.tests (and the
	// peer mutates its own maps), but this node's custody keys are stable for
	// the duration — the copy just guards the iteration against future edits.
	n.digestScratch = append(n.digestScratch[:0], n.custodyOrder...)
	for _, h := range n.digestScratch {
		c := n.custody[h]
		if !n.eligibleToRelay(now, c, other.ID()) {
			continue
		}
		if n.relayOne(now, h, c, other) {
			transferred = true
		}
	}
	return transferred
}

func (n *g2gEpidemicNode) eligibleToRelay(now sim.Time, c *g2gCustody, peer trace.NodeID) bool {
	if c.dropped || c.isDest || now >= c.genAt.Add(n.env.Params.Delta1) {
		return false
	}
	// The fan-out cap applies to relays; the sender keeps offering the
	// message ("the sender S tries to relay it to the first two (at least)
	// nodes it meets"), which is what lets G2G match Epidemic's delivery
	// while relays keep the replica count down.
	if !c.isSource && c.relayCount >= n.env.Params.MaxRelays {
		return false
	}
	if _, done := c.relayedTo[peer]; done {
		return false
	}
	if n.Blacklisted(peer) {
		return false
	}
	return c.raw != nil
}

// relayOne runs the five steps of Fig. 1 against the peer.
func (n *g2gEpidemicNode) relayOne(now sim.Time, h g2gcrypto.Digest, c *g2gCustody, other *g2gEpidemicNode) bool {
	// Step 1-2: RELAY_RQST → RELAY_OK / RELAY_DECLINE.
	req := n.signed(now, wire.RelayRequest{Hash: h})
	ack := other.handleRelayRequest(now, req)
	if ack == nil || ack.Signer != other.ID() || !n.verified(*ack) {
		return false
	}
	if _, declined := ack.Body.(wire.RelayDecline); declined {
		return false
	}
	if okBody, isOK := ack.Body.(wire.RelayOK); !isOK || okBody.Hash != h {
		return false
	}

	// Step 3: RELAY with the payload encrypted under a fresh key.
	key := newSessionKey(n.env.RNG)
	encrypted, err := g2gcrypto.EncryptPayload(key, c.raw, rngReader{n.env.RNG})
	if err != nil {
		return false
	}
	transfer := n.signed(now, wire.RelayTransfer{
		Hash: h, GenAt: c.genAt, Encrypted: encrypted,
	})

	// Step 4: the peer commits with a signed PoR before learning anything.
	por := other.handleRelayTransfer(now, transfer)
	if por == nil || por.Signer != other.ID() || !n.verified(*por) {
		return false
	}
	porBody, ok := por.Body.(wire.ProofOfRelay)
	if !ok || porBody.Hash != h || porBody.From != n.ID() || porBody.To != other.ID() {
		return false
	}

	// Step 5: reveal the key; the peer now learns whether it is the
	// destination.
	reveal := n.signed(now, wire.KeyReveal{Hash: h, Key: key})
	other.handleKeyReveal(now, reveal, n.ID())
	n.noteTx(len(encrypted))
	other.noteRx(len(encrypted))

	c.pors = append(c.pors, *por)
	c.relayedTo[other.ID()] = struct{}{}
	if other.ID() != c.msg.Dest {
		c.relayCount++
	}
	if c.isSource && other.ID() != c.msg.Dest {
		n.tests[h] = append(n.tests[h], &pendingTest{relay: other.ID(), por: *por})
		orderedInsert(&n.testsOrder, h)
	}
	// A relay that has found its two onward relays may discard the payload
	// (the PoRs are its defence); the source keeps it to verify storage
	// proofs during tests.
	if !c.isSource && len(c.pors) >= 2 && c.relayCount >= n.env.Params.MaxRelays {
		c.raw = nil
	}
	n.env.Observer.Replicated(h, n.ID(), other.ID(), now)
	n.notifyRelayProven(*por, now)
	return true
}

func (n *g2gEpidemicNode) handleRelayRequest(now sim.Time, req wire.Signed) *wire.Signed {
	body, ok := req.Body.(wire.RelayRequest)
	if !ok || !n.verified(req) {
		return nil
	}
	// B would not lie here: it does not yet know whether it is the
	// destination, so declining without having seen the message would be
	// against its own interest.
	var resp wire.Signed
	if _, seen := n.seen[body.Hash]; seen {
		resp = n.signed(now, wire.RelayDecline{Hash: body.Hash})
	} else {
		resp = n.signed(now, wire.RelayOK{Hash: body.Hash})
	}
	return &resp
}

func (n *g2gEpidemicNode) handleRelayTransfer(now sim.Time, transfer wire.Signed) *wire.Signed {
	body, ok := transfer.Body.(wire.RelayTransfer)
	if !ok || !n.verified(transfer) {
		return nil
	}
	if _, seen := n.seen[body.Hash]; seen {
		return nil
	}
	n.pendingIn[body.Hash] = &pendingTransfer{
		from: transfer.Signer, fm: body.FM, genAt: body.GenAt, encrypted: body.Encrypted,
	}
	por := n.signed(now, wire.ProofOfRelay{
		Hash: body.Hash, From: transfer.Signer, To: n.ID(),
	})
	return &por
}

func (n *g2gEpidemicNode) handleKeyReveal(now sim.Time, reveal wire.Signed, from trace.NodeID) {
	body, ok := reveal.Body.(wire.KeyReveal)
	if !ok || !n.verified(reveal) {
		return
	}
	pending, ok := n.pendingIn[body.Hash]
	if !ok || pending.from != from {
		return
	}
	delete(n.pendingIn, body.Hash)

	raw, err := g2gcrypto.DecryptPayload(body.Key, pending.encrypted)
	if err != nil {
		return
	}
	m, err := message.Unmarshal(raw)
	if err != nil || m.Hash() != body.Hash {
		// The initiator handed over bytes that do not match the advertised
		// hash: ignore the handoff entirely.
		return
	}
	n.seen[body.Hash] = struct{}{}

	c := &g2gCustody{
		msg: m, raw: raw, hash: body.Hash, genAt: pending.genAt,
		relayedTo: make(map[trace.NodeID]struct{}),
	}
	if m.Dest == n.ID() {
		c.isDest = true
		if res, err := m.Open(n.env.Sys, n.self); err == nil && res.Authentic {
			n.env.Observer.Delivered(body.Hash, now)
		}
	} else if n.behavior.Deviation == Dropper && n.deviates(from) {
		// Message dropper: discard right after the relay phase. The signed
		// PoR it just gave away is now a liability.
		c.dropped = true
		c.raw = nil
	}
	n.custody[body.Hash] = c
	orderedInsert(&n.custodyOrder, body.Hash)
}

// expire drops all state for messages past Δ2.
func (n *g2gEpidemicNode) expire(now sim.Time) {
	// Walk the maintained order, compacting survivors in place: the keepers
	// stay sorted and each deletion is O(1) against the slice.
	kept := n.custodyOrder[:0]
	for _, h := range n.custodyOrder {
		c := n.custody[h]
		if now >= c.genAt.Add(n.env.Params.Delta2) {
			delete(n.custody, h)
			delete(n.seen, h)
			if _, ok := n.tests[h]; ok {
				delete(n.tests, h)
				orderedRemove(&n.testsOrder, h)
			}
			continue
		}
		kept = append(kept, h)
	}
	n.custodyOrder = kept
}

// MemoryBytes implements MemoryMeter: stored payloads, collected proofs of
// relay, and seen-set entries.
func (n *g2gEpidemicNode) MemoryBytes() int64 {
	var total int64
	for _, c := range n.custody {
		total += int64(len(c.raw))
		total += int64(len(c.pors)) * porFootprint
	}
	total += int64(len(n.seen)) * hashFootprint
	for _, p := range n.pendingIn {
		total += int64(len(p.encrypted))
	}
	return total
}
