package protocol

import (
	"fmt"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// g2gEpidemicNode implements G2G Epidemic Forwarding (Section IV) on the
// shared G2G core: its own part is the RELAY_RQST/RELAY_OK negotiation of
// Fig. 1 steps 1–2, which lets a peer that has already seen a message
// decline it.
type g2gEpidemicNode struct {
	g2gNode
}

var _ Node = (*g2gEpidemicNode)(nil)

func newG2GEpidemicNode(env *Env, self g2gcrypto.Identity, behavior Behavior) *g2gEpidemicNode {
	return &g2gEpidemicNode{g2gNode: newG2GNode(env, self, behavior)}
}

// Generate implements Node. G2G Epidemic messages carry no quality label.
func (n *g2gEpidemicNode) Generate(now sim.Time, dest trace.NodeID, body []byte) error {
	return n.generate(now, dest, body, 0)
}

// ObserveMeeting implements Node. G2G Epidemic keeps no quality state.
func (n *g2gEpidemicNode) ObserveMeeting(sim.Time, trace.NodeID) {}

// RunSession implements Node: first the test phase for any pending
// challenges against this peer, then the relay phase.
func (n *g2gEpidemicNode) RunSession(now sim.Time, peer Node) (bool, error) {
	other, ok := peer.(*g2gEpidemicNode)
	if !ok {
		return false, fmt.Errorf("%w: %T vs %T", ErrProtocolMismatch, n, peer)
	}
	n.expire(now)
	n.testPhase(now, &other.g2gNode, nil)
	return n.relayPhase(now, other.ID(), func(h g2gcrypto.Digest, c *g2gCustody) bool {
		return n.relayOne(now, h, c, other)
	}), nil
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
	key, transfer, size, ok := n.sealTransfer(now, c, 0, nil)
	if !ok {
		return false
	}
	// Step 4: the peer commits with a signed PoR before learning anything.
	por := other.handleRelayTransfer(now, transfer)
	if !n.provenBy(por, wire.ProofOfRelay{Hash: h, From: n.ID(), To: other.ID()}) {
		return false
	}
	// Step 5: reveal the key; the peer now learns whether it is the
	// destination.
	other.handleKeyReveal(now, n.signed(now, wire.KeyReveal{Hash: h, Key: key}), n.ID())
	n.recordHandoff(now, c, &other.g2gNode, *por, size, 0)
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
	body, ok := n.openTransfer(transfer)
	if !ok {
		return nil
	}
	return n.commitTransfer(now, transfer.Signer, body, 0, wire.ProofOfRelay{})
}
