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

// g2gDelegationNode implements G2G Delegation Forwarding (Sections VI–VII)
// on the shared G2G core. Its own parts are the FQ_RQST/FQ_RESP quality
// negotiation with destination decoys (Fig. 6), quality labels updated only
// on forwarding, timeframed quality snapshots, the sender's embedded
// failed-relay declarations, the test-by-sender chain audit
// f_AD = f_m¹ < f_BD = f_m² < f_CD, and the test-by-destination quality
// audit that exposes liars.
type g2gDelegationNode struct {
	g2gNode
	frequency bool
	quality   *qualityTable
	// claims remembers the FQ_RESP this node issued per message hash so the
	// PoR it signs moments later is consistent with its claim.
	claims map[g2gcrypto.Digest]wire.FQResponse
	// audited tracks (responder, frame) pairs this destination has already
	// audited, so one liar is not reported once per arriving copy.
	audited map[auditKey]struct{}
}

type auditKey struct {
	responder trace.NodeID
	frame     message.FrameIndex
}

var _ Node = (*g2gDelegationNode)(nil)

func newG2GDelegationNode(env *Env, self g2gcrypto.Identity, behavior Behavior, frequency bool) *g2gDelegationNode {
	return &g2gDelegationNode{
		g2gNode:   newG2GNode(env, self, behavior),
		frequency: frequency,
		quality:   newQualityTable(env.Params.QualityFrame),
		claims:    make(map[g2gcrypto.Digest]wire.FQResponse),
		audited:   make(map[auditKey]struct{}),
	}
}

// Generate implements Node. The fresh message is labelled with the sender's
// current quality toward the destination, exactly like vanilla Delegation;
// the sender-test chain is anchored at the first relay's claim, so the
// initial label needs no frame snapshotting.
func (n *g2gDelegationNode) Generate(now sim.Time, dest trace.NodeID, body []byte) error {
	return n.generate(now, dest, body, n.quality.qualityAt(dest, now, n.frequency))
}

// ObserveMeeting implements Node.
func (n *g2gDelegationNode) ObserveMeeting(now sim.Time, peer trace.NodeID) {
	n.noteQualityUpdate()
	n.quality.observe(now, peer)
}

// RunSession implements Node: the test phase with the sender's chain audit,
// then the relay phase.
func (n *g2gDelegationNode) RunSession(now sim.Time, peer Node) (bool, error) {
	other, ok := peer.(*g2gDelegationNode)
	if !ok {
		return false, fmt.Errorf("%w: %T vs %T", ErrProtocolMismatch, n, peer)
	}
	n.expire(now)
	n.testPhase(now, &other.g2gNode, labelChainHolds)
	return n.relayPhase(now, other.ID(), func(h g2gcrypto.Digest, c *g2gCustody) bool {
		return n.relayOne(now, h, c, other)
	}), nil
}

// --- relay phase (Fig. 6) ---

// relayOne runs steps 8–12 of Fig. 6 against the peer.
func (n *g2gDelegationNode) relayOne(now sim.Time, h g2gcrypto.Digest, c *g2gCustody, other *g2gDelegationNode) bool {
	isDest := c.msg.Dest == other.ID()

	// Step 8: ask the peer its quality toward D' — the real destination, or
	// a random decoy when the peer *is* the destination, so it cannot tell.
	dPrime := c.msg.Dest
	if isDest {
		dPrime = n.randomDecoy(other.ID())
	}
	fqRespEnv, fqResp, ok := n.exchangeFQ(now, h, dPrime, other)
	if !ok {
		return false
	}

	// A cheater rewrites the message quality to zero so that anyone
	// qualifies and it can get rid of the message quickly.
	presentedFM := c.fm
	if n.behavior.Deviation == Cheater && n.deviates(other.ID()) {
		presentedFM = 0
	}

	if !isDest && !fqResp.FQ.Better(presentedFM) {
		// Peer does not qualify. The sender records the last two signed
		// declarations of failed relays for the destination's audit.
		if c.isSource && fqResp.FQ < presentedFM {
			c.failedFQ = append(c.failedFQ, *fqRespEnv)
			if len(c.failedFQ) > 2 {
				c.failedFQ = c.failedFQ[len(c.failedFQ)-2:]
			}
		}
		return false
	}

	// Steps 10–12: hand over encrypted, collect the PoR, reveal the key.
	outAttachments := c.attachments
	if c.isSource {
		outAttachments = append([]wire.Signed(nil), c.failedFQ...)
	}
	key, transfer, size, ok := n.sealTransfer(now, c, presentedFM, outAttachments)
	if !ok {
		return false
	}
	por := other.handleRelayTransfer(now, transfer)
	if !n.provenBy(por, wire.ProofOfRelay{
		Hash: h, From: n.ID(), To: other.ID(),
		DPrime: dPrime, FM: presentedFM, FBD: fqResp.FQ, Frame: fqResp.Frame,
	}) {
		return false
	}
	other.handleKeyReveal(now, n.signed(now, wire.KeyReveal{Hash: h, Key: key}), n.ID())
	// Both copies take the new relay's quality as their label; quality is
	// changed only when forwarded.
	n.recordHandoff(now, c, &other.g2gNode, *por, size, fqResp.FQ)
	return true
}

// exchangeFQ runs the forwarding decision's quality exchange (Fig. 6 step 8):
// the signed FQ_RQST to the peer and the validation of its FQ_RESP. It is the
// "decide" span of the per-phase profile.
func (n *g2gDelegationNode) exchangeFQ(now sim.Time, h g2gcrypto.Digest, dPrime trace.NodeID,
	other *g2gDelegationNode) (*wire.Signed, wire.FQResponse, bool) {

	n.env.spans.Enter(obs.SpanDecide)
	defer n.env.spans.Exit()
	fqReq := n.signed(now, wire.FQRequest{Hash: h, DPrime: dPrime})
	fqRespEnv := other.handleFQRequest(now, fqReq)
	if fqRespEnv == nil || fqRespEnv.Signer != other.ID() || !n.verified(*fqRespEnv) {
		return nil, wire.FQResponse{}, false
	}
	fqResp, ok := fqRespEnv.Body.(wire.FQResponse)
	if !ok || fqResp.Responder != other.ID() || fqResp.DPrime != dPrime {
		return nil, wire.FQResponse{}, false
	}
	return fqRespEnv, fqResp, true
}

// randomDecoy picks a uniform node different from exclude (and from this
// node) to stand in as D'. New refuses populations too small to have one.
func (n *g2gDelegationNode) randomDecoy(exclude trace.NodeID) trace.NodeID {
	total := n.env.Sys.Nodes()
	for {
		candidate := trace.NodeID(n.env.RNG.Intn(total))
		if candidate != exclude && candidate != n.ID() {
			return candidate
		}
	}
}

func (n *g2gDelegationNode) handleFQRequest(now sim.Time, req wire.Signed) *wire.Signed {
	body, ok := req.Body.(wire.FQRequest)
	if !ok || !n.verified(req) {
		return nil
	}
	fq, frame := n.quality.reportedQuality(body.DPrime, now, n.frequency)
	if n.behavior.Deviation == Liar && n.deviates(req.Signer) {
		// A liar declares quality zero to avoid ever being chosen as a
		// relay. The frame index stays truthful so the claim looks
		// well-formed.
		fq = 0
	}
	resp := wire.FQResponse{Responder: n.ID(), DPrime: body.DPrime, FQ: fq, Frame: frame}
	n.claims[body.Hash] = resp
	env := n.signed(now, resp)
	return &env
}

func (n *g2gDelegationNode) handleRelayTransfer(now sim.Time, transfer wire.Signed) *wire.Signed {
	body, ok := n.openTransfer(transfer)
	if !ok {
		return nil
	}
	claim, ok := n.claims[body.Hash]
	if !ok {
		// No preceding FQ exchange: refuse the handoff.
		return nil
	}
	delete(n.claims, body.Hash)
	return n.commitTransfer(now, transfer.Signer, body, claim.FQ, wire.ProofOfRelay{
		DPrime: claim.DPrime, FM: body.FM, FBD: claim.FQ, Frame: claim.Frame,
	})
}

// handleKeyReveal takes custody through the core and, at the destination,
// audits the declarations the copy carries.
func (n *g2gDelegationNode) handleKeyReveal(now sim.Time, reveal wire.Signed, from trace.NodeID) *g2gCustody {
	c := n.g2gNode.handleKeyReveal(now, reveal, from)
	if c != nil && c.isDest {
		n.auditAttachments(now, c)
	}
	return c
}

// auditAttachments is the test-by-destination phase: the destination checks
// each embedded failed-relay declaration against its own symmetric record
// of the claimed timeframe. A mismatch is a proof of lying.
func (n *g2gDelegationNode) auditAttachments(now sim.Time, c *g2gCustody) {
	for _, att := range c.attachments {
		claim, ok := att.Body.(wire.FQResponse)
		if !ok || !n.verified(att) || att.Signer != claim.Responder {
			continue
		}
		if claim.DPrime != n.ID() {
			// A declaration about a decoy destination: nothing to audit.
			continue
		}
		if !n.quality.auditable(claim.Frame, now) {
			continue
		}
		key := auditKey{responder: claim.Responder, frame: claim.Frame}
		if _, done := n.audited[key]; done {
			continue
		}
		n.audited[key] = struct{}{}
		truth := n.quality.auditQuality(claim.Responder, claim.Frame, n.frequency)
		if claim.FQ != truth {
			n.reportMisbehavior(now, claim.Responder, wire.ReasonLied,
				[]wire.Signed{att}, c.hash, c.genAt.Add(n.env.Params.Delta1))
		}
	}
}

// --- test by the sender (Section VI-B) ---

// labelChainHolds is the sender's chain audit on a relay's two PoRs:
// f_AD = f_m¹ < f_BD = f_m² < f_CD, where the label the relay took at
// handoff anchors the chain. Hops that deliver to the true destination are
// exempt from the strict-increase rule (delivery is always allowed), but the
// label continuity must hold.
func labelChainHolds(c *g2gCustody, pt *pendingTest, first, second wire.ProofOfRelay) bool {
	expected := pt.labelGiven
	for _, hop := range []wire.ProofOfRelay{first, second} {
		if hop.FM != expected {
			return false
		}
		if hop.To != c.msg.Dest && !hop.FBD.Better(hop.FM) {
			return false
		}
		expected = hop.FBD
	}
	return true
}

// MemoryBytes implements MemoryMeter: the core's payloads, proofs and
// declarations plus the quality history.
func (n *g2gDelegationNode) MemoryBytes() int64 {
	return n.g2gNode.MemoryBytes() + n.quality.historyBytes()
}
