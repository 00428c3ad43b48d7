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

// g2gNode is the node core shared by G2G Epidemic and G2G Delegation: message
// custody, the relay phase's encrypt-then-reveal handoff producing signed
// proofs of relay (Fig. 1 steps 3–5, Fig. 6 steps 10–12), the sender-driven
// test phase of Fig. 2 (two PoRs or a heavy-HMAC storage proof), the Δ1/Δ2
// timeouts, and proof-of-misbehavior broadcasts. The two protocols embed it
// and differ only in the pre-transfer negotiation (and the PoR fields it
// fixes), the chain audit applied to a valid PoR pair, and the destination's
// audit of embedded declarations.
type g2gNode struct {
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

// g2gCustody is this node's state for one message it has handled. The
// delegation fields (fm, attachments, failedFQ) stay zero for G2G Epidemic.
type g2gCustody struct {
	msg   *message.Message
	raw   []byte // marshalled message: heavy-HMAC input; nil once discardable
	hash  g2gcrypto.Digest
	genAt sim.Time
	// fm is the message's quality label (G2G Delegation).
	fm message.Quality
	// isSource marks the originator (it runs the test phase and keeps raw
	// until Δ2 to verify storage proofs).
	isSource bool
	// isDest marks the destination (it neither relays on nor is tested).
	isDest bool
	// dropped marks a deviating custodian that discarded the payload.
	dropped bool
	// pors are the proofs of relay collected from onward handoffs; they are
	// this node's defence in the test phase.
	pors []wire.Signed
	// attachments are the sender-embedded failed-relay declarations this
	// copy carries toward the destination.
	attachments []wire.Signed
	// failedFQ (source only) keeps the last two signed FQ_RESPs of nodes
	// that failed to qualify as relays.
	failedFQ  []wire.Signed
	relayedTo map[trace.NodeID]struct{}
	// relayCount counts handoffs to non-destination relays: deliveries to
	// the destination do not consume the fan-out budget.
	relayCount int
}

type pendingTest struct {
	relay trace.NodeID
	por   wire.Signed // the relay's handoff PoR: the PoM evidence if it fails
	// labelGiven is the quality the relay claimed at handoff, which became
	// the label of both copies: the anchor of G2G Delegation's chain audit.
	labelGiven message.Quality
	tested     bool
}

type pendingTransfer struct {
	from        trace.NodeID
	fm          message.Quality
	genAt       sim.Time
	encrypted   []byte
	attachments []wire.Signed
}

// chainAudit is a protocol's extra check on a test answer whose two PoRs are
// otherwise valid; it reports whether the pair passes. G2G Epidemic has none.
type chainAudit func(c *g2gCustody, pt *pendingTest, first, second wire.ProofOfRelay) bool

func newG2GNode(env *Env, self g2gcrypto.Identity, behavior Behavior) g2gNode {
	return g2gNode{
		base:      newBase(env, self, behavior),
		seen:      make(map[g2gcrypto.Digest]struct{}),
		custody:   make(map[g2gcrypto.Digest]*g2gCustody),
		tests:     make(map[g2gcrypto.Digest][]*pendingTest),
		pendingIn: make(map[g2gcrypto.Digest]*pendingTransfer),
	}
}

// generate creates a message from this node and takes custody of it under
// the quality label fm.
func (n *g2gNode) generate(now sim.Time, dest trace.NodeID, body []byte, fm message.Quality) error {
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
		msg: m, raw: m.Marshal(), hash: h, genAt: now, fm: fm,
		isSource:  true,
		relayedTo: make(map[trace.NodeID]struct{}),
	}
	orderedInsert(&n.custodyOrder, h)
	n.env.Observer.Generated(h, id, n.ID(), dest, now)
	return nil
}

// DeliverPoM implements Node.
func (n *g2gNode) DeliverPoM(pom wire.Signed) { n.acceptPoM(pom) }

// --- test phase (Fig. 2) ---

// testPhase challenges every relay of this node's messages that is due a
// test and is the peer other. audit is the protocol's chain audit, or nil.
func (n *g2gNode) testPhase(now sim.Time, other *g2gNode, audit chainAudit) {
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
			passed, reason, evidence := n.evaluateTestResponse(c, pt, seed, resp, audit)
			n.env.spans.Exit()
			n.noteTested(passed)
			n.env.Observer.Tested(other.ID(), passed, now)
			if !passed {
				n.reportMisbehavior(now, other.ID(), reason, evidence, h,
					c.genAt.Add(n.env.Params.Delta1))
			}
		}
	}
}

// evaluateTestResponse checks a challenge answer: either two verifiable
// proofs of relay for this message that also pass audit (when non-nil), or
// the heavy HMAC over the full message under the challenge seed. On failure
// it returns the reason and the evidence documents for the PoM broadcast.
func (n *g2gNode) evaluateTestResponse(c *g2gCustody, pt *pendingTest, seed [16]byte,
	resp *wire.Signed, audit chainAudit) (bool, wire.MisbehaviorReason, []wire.Signed) {

	passed := false
	if resp != nil && resp.Signer == pt.relay && n.verified(*resp) {
		switch body := resp.Body.(type) {
		case wire.PORResponse:
			first, second, ok := n.validPORPair(c, pt.relay, body)
			if ok && audit != nil && !audit(c, pt, first, second) {
				return false, wire.ReasonCheated, []wire.Signed{pt.por, body.First, body.Second}
			}
			passed = ok
		case wire.StoredResponse:
			passed = body.Hash == c.hash && body.Seed == seed && c.raw != nil &&
				n.verifyHeavyHMAC(c.raw, seed[:], n.env.Params.HeavyHMACIterations, body.MAC)
		}
	}
	if !passed {
		return false, wire.ReasonDropped, []wire.Signed{pt.por}
	}
	return true, 0, nil
}

// validPORPair checks that resp holds two verifiable proofs that relay handed
// this message on to two distinct other nodes, and returns their bodies.
func (n *g2gNode) validPORPair(c *g2gCustody, relay trace.NodeID,
	resp wire.PORResponse) (first, second wire.ProofOfRelay, ok bool) {

	first, ok1 := resp.First.Body.(wire.ProofOfRelay)
	second, ok2 := resp.Second.Body.(wire.ProofOfRelay)
	ok = ok1 && ok2 &&
		n.verified(resp.First) && n.verified(resp.Second) &&
		// Each PoR must be signed by the node it names as the new custodian.
		resp.First.Signer == first.To && resp.Second.Signer == second.To &&
		first.Hash == c.hash && second.Hash == c.hash &&
		first.From == relay && second.From == relay &&
		// Two *distinct* onward relays, neither being the relay itself.
		first.To != second.To && first.To != relay && second.To != relay
	return first, second, ok
}

// handlePORChallenge is the challenged node's side: produce two PoRs, or the
// storage proof, or fail.
func (n *g2gNode) handlePORChallenge(now sim.Time, challenge wire.Signed) *wire.Signed {
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

// --- relay phase (Figs. 1 and 6) ---

// relayPhase offers every eligible message to peer through the protocol's
// relayOne and reports whether any handoff completed.
func (n *g2gNode) relayPhase(now sim.Time, peer trace.NodeID,
	relayOne func(h g2gcrypto.Digest, c *g2gCustody) bool) bool {

	n.env.spans.Enter(obs.SpanRelay)
	defer n.env.spans.Exit()
	transferred := false
	// Snapshot the maintained order: relayOne may append to n.tests (and the
	// peer mutates its own maps), but this node's custody keys are stable for
	// the duration — the copy just guards the iteration against future edits.
	n.digestScratch = append(n.digestScratch[:0], n.custodyOrder...)
	for _, h := range n.digestScratch {
		c := n.custody[h]
		if !n.eligibleToRelay(now, c, peer) {
			continue
		}
		if relayOne(h, c) {
			transferred = true
		}
	}
	return transferred
}

func (n *g2gNode) eligibleToRelay(now sim.Time, c *g2gCustody, peer trace.NodeID) bool {
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

// sealTransfer builds the RELAY step: the payload encrypted under a fresh
// key, with the protocol's quality label and embedded declarations. It
// returns the key to reveal once the peer has committed with a PoR, and the
// payload's size on the air.
func (n *g2gNode) sealTransfer(now sim.Time, c *g2gCustody, fm message.Quality,
	attachments []wire.Signed) (g2gcrypto.SessionKey, wire.Signed, int, bool) {

	key := newSessionKey(n.env.RNG)
	encrypted, err := g2gcrypto.EncryptPayload(key, c.raw, rngReader{n.env.RNG})
	if err != nil {
		return key, wire.Signed{}, 0, false
	}
	transfer := n.signed(now, wire.RelayTransfer{
		Hash: c.hash, FM: fm, GenAt: c.genAt, Encrypted: encrypted, Attachments: attachments,
	})
	return key, transfer, len(encrypted), true
}

// provenBy reports whether por is a verifiable proof of relay, signed by the
// new custodian, whose body is exactly want.
func (n *g2gNode) provenBy(por *wire.Signed, want wire.ProofOfRelay) bool {
	if por == nil || por.Signer != want.To || !n.verified(*por) {
		return false
	}
	body, ok := por.Body.(wire.ProofOfRelay)
	return ok && body == want
}

// recordHandoff is the sender's bookkeeping after a completed handoff of c to
// other: payload accounting, the PoR as test-phase defence, the fan-out
// budget, the source's pending test, and the relay's discard of a payload it
// no longer needs. Both copies take label as their quality label.
func (n *g2gNode) recordHandoff(now sim.Time, c *g2gCustody, other *g2gNode, por wire.Signed,
	size int, label message.Quality) {

	n.noteTx(size)
	other.noteRx(size)
	c.fm = label
	c.pors = append(c.pors, por)
	c.relayedTo[other.ID()] = struct{}{}
	toRelay := other.ID() != c.msg.Dest
	if toRelay {
		c.relayCount++
	}
	if c.isSource && toRelay {
		n.tests[c.hash] = append(n.tests[c.hash], &pendingTest{
			relay: other.ID(), por: por, labelGiven: label,
		})
		orderedInsert(&n.testsOrder, c.hash)
	}
	// A relay that has found its two onward relays may discard the payload
	// (the PoRs are its defence); the source keeps it to verify storage
	// proofs during tests.
	if !c.isSource && len(c.pors) >= 2 && c.relayCount >= n.env.Params.MaxRelays {
		c.raw = nil
	}
	n.env.Observer.Replicated(c.hash, n.ID(), other.ID(), now)
	n.notifyRelayProven(por, now)
}

// openTransfer checks a RELAY envelope; it refuses a message this node has
// already seen.
func (n *g2gNode) openTransfer(transfer wire.Signed) (wire.RelayTransfer, bool) {
	body, ok := transfer.Body.(wire.RelayTransfer)
	if !ok || !n.verified(transfer) {
		return body, false
	}
	_, seen := n.seen[body.Hash]
	return body, !seen
}

// commitTransfer holds an opened RELAY until the key reveal, labelled fm, and
// commits to it with a signed PoR. por carries the protocol's own PoR fields;
// the hash and the two custodians are filled in here.
func (n *g2gNode) commitTransfer(now sim.Time, from trace.NodeID, body wire.RelayTransfer,
	fm message.Quality, por wire.ProofOfRelay) *wire.Signed {

	n.pendingIn[body.Hash] = &pendingTransfer{
		from: from, fm: fm, genAt: body.GenAt,
		encrypted: body.Encrypted, attachments: body.Attachments,
	}
	por.Hash, por.From, por.To = body.Hash, from, n.ID()
	signed := n.signed(now, por)
	return &signed
}

// handleKeyReveal is the receiving side of the key reveal: decrypt the held
// payload and take custody, learning only now whether this node is the
// destination. It returns the new custody record, or nil if the handoff is
// void.
func (n *g2gNode) handleKeyReveal(now sim.Time, reveal wire.Signed, from trace.NodeID) *g2gCustody {
	body, ok := reveal.Body.(wire.KeyReveal)
	if !ok || !n.verified(reveal) {
		return nil
	}
	pending, ok := n.pendingIn[body.Hash]
	if !ok || pending.from != from {
		return nil
	}
	delete(n.pendingIn, body.Hash)

	raw, err := g2gcrypto.DecryptPayload(body.Key, pending.encrypted)
	if err != nil {
		return nil
	}
	m, err := message.Unmarshal(raw)
	if err != nil || m.Hash() != body.Hash {
		// The initiator handed over bytes that do not match the advertised
		// hash: ignore the handoff entirely.
		return nil
	}
	n.seen[body.Hash] = struct{}{}

	c := &g2gCustody{
		msg: m, raw: raw, hash: body.Hash, genAt: pending.genAt,
		fm:          pending.fm,
		attachments: pending.attachments,
		relayedTo:   make(map[trace.NodeID]struct{}),
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
	return c
}

// expire drops all state for messages past Δ2.
func (n *g2gNode) expire(now sim.Time) {
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
// relay and embedded declarations, and seen-set entries.
func (n *g2gNode) MemoryBytes() int64 {
	var total int64
	for _, c := range n.custody {
		total += int64(len(c.raw))
		total += int64(len(c.pors)+len(c.attachments)+len(c.failedFQ)) * porFootprint
	}
	total += int64(len(n.seen)) * hashFootprint
	for _, p := range n.pendingIn {
		total += int64(len(p.encrypted))
	}
	return total
}
