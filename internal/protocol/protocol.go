// Package protocol implements the four forwarding protocols the paper
// studies — Epidemic, G2G Epidemic, Delegation (Destination Frequency and
// Destination Last Contact), and G2G Delegation — together with the selfish
// deviations (droppers, liars, cheaters, and their "with outsiders"
// variants).
//
// Each protocol is a per-node state machine driven by the trace engine:
// message generation, observed meetings (for quality bookkeeping), pairwise
// sessions at contacts, and proof-of-misbehavior broadcasts. Sessions
// exchange the actual signed wire messages of Figs. 1, 2 and 6 and verify
// every signature, so a deviation that requires forging another node's
// statement is impossible here for the same reason it is in the paper.
package protocol

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"sort"
	"strings"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// Kind selects a forwarding protocol.
type Kind int

// The protocols under study.
const (
	Epidemic Kind = iota + 1
	G2GEpidemic
	DelegationFrequency
	DelegationLastContact
	G2GDelegationFrequency
	G2GDelegationLastContact
)

// kindTable fixes the canonical protocol names in declaration order. Both
// Kind.String and ParseKind walk this one table, so name lookups are
// order-independent (no map iteration) and the two directions cannot drift.
var kindTable = [...]struct {
	kind Kind
	name string
}{
	{Epidemic, "epidemic"},
	{G2GEpidemic, "g2g-epidemic"},
	{DelegationFrequency, "delegation-frequency"},
	{DelegationLastContact, "delegation-last-contact"},
	{G2GDelegationFrequency, "g2g-delegation-frequency"},
	{G2GDelegationLastContact, "g2g-delegation-last-contact"},
}

// String returns the protocol's canonical name.
func (k Kind) String() string {
	for _, e := range kindTable {
		if e.kind == k {
			return e.name
		}
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindNames returns every canonical protocol name in sorted order.
func KindNames() []string {
	out := make([]string, len(kindTable))
	for i, e := range kindTable {
		out[i] = e.name
	}
	sort.Strings(out)
	return out
}

// ParseKind resolves a canonical protocol name.
func ParseKind(s string) (Kind, error) {
	for _, e := range kindTable {
		if e.name == s {
			return e.kind, nil
		}
	}
	return 0, fmt.Errorf("protocol: unknown protocol %q (want one of: %s)",
		s, strings.Join(KindNames(), ", "))
}

// IsG2G reports whether the protocol carries the Give2Get accountability
// machinery.
func (k Kind) IsG2G() bool {
	return k == G2GEpidemic || k == G2GDelegationFrequency || k == G2GDelegationLastContact
}

// IsDelegation reports whether the protocol forwards by delegation quality.
func (k Kind) IsDelegation() bool {
	switch k {
	case DelegationFrequency, DelegationLastContact, G2GDelegationFrequency, G2GDelegationLastContact:
		return true
	default:
		return false
	}
}

// UsesFrequency reports whether quality is the encounter count (as opposed
// to the last-contact time).
func (k Kind) UsesFrequency() bool {
	return k == DelegationFrequency || k == G2GDelegationFrequency
}

// Deviation enumerates the rational deviations of Sections V and VII.
type Deviation int

// The deviations under study.
const (
	// Honest follows the protocol truthfully.
	Honest Deviation = iota
	// Dropper discards every message right after the relay phase ends.
	Dropper
	// Liar reports forwarding quality zero whenever asked (delegation only).
	Liar
	// Cheater rewrites the quality label of carried messages to zero to get
	// rid of them quickly (delegation only).
	Cheater
)

var deviationNames = map[Deviation]string{
	Honest: "honest", Dropper: "dropper", Liar: "liar", Cheater: "cheater",
}

// String returns the deviation's canonical name.
func (d Deviation) String() string {
	if s, ok := deviationNames[d]; ok {
		return s
	}
	return fmt.Sprintf("Deviation(%d)", int(d))
}

// Behavior configures a node's strategy.
type Behavior struct {
	Deviation Deviation
	// OnlyOutsiders restricts the deviation to sessions with members of
	// other communities ("selfishness with outsiders", Section V-A).
	OnlyOutsiders bool
	// SameCommunity answers community membership queries; required when
	// OnlyOutsiders is set. It comes from k-clique detection on the trace.
	SameCommunity func(a, b trace.NodeID) bool
}

// activeAgainst reports whether the node deviates in a session with peer.
func (b Behavior) activeAgainst(self, peer trace.NodeID) bool {
	if b.Deviation == Honest {
		return false
	}
	if !b.OnlyOutsiders {
		return true
	}
	if b.SameCommunity == nil {
		return true
	}
	return !b.SameCommunity(self, peer)
}

// Params are the protocol constants of Sections IV–VII.
type Params struct {
	// Delta1 is the message TTL: relaying stops at generation + Delta1.
	Delta1 sim.Time
	// Delta2 bounds the test window: all state for a message is discarded
	// at generation + Delta2. The paper sets Delta2 = 2*Delta1.
	Delta2 sim.Time
	// MaxRelays is how many distinct relays each custodian hands the
	// message to (2 in the paper; ablated in the benches).
	MaxRelays int
	// HeavyHMACIterations tunes the cost of the storage proof.
	HeavyHMACIterations int
	// QualityFrame is the timeframe after which delegation quality
	// snapshots roll over (34 minutes in the paper).
	QualityFrame sim.Time
}

// DefaultParams returns the paper's settings for a given Δ1.
func DefaultParams(delta1 sim.Time) Params {
	return Params{
		Delta1:              delta1,
		Delta2:              2 * delta1,
		MaxRelays:           2,
		HeavyHMACIterations: 1024,
		QualityFrame:        34 * sim.Minute,
	}
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	switch {
	case p.Delta1 <= 0:
		return errors.New("protocol: Delta1 must be positive")
	case p.Delta2 < p.Delta1:
		return errors.New("protocol: Delta2 must be at least Delta1")
	case p.MaxRelays < 1:
		return errors.New("protocol: MaxRelays must be at least 1")
	case p.HeavyHMACIterations < 1:
		return errors.New("protocol: HeavyHMACIterations must be at least 1")
	case p.QualityFrame <= 0:
		return errors.New("protocol: QualityFrame must be positive")
	default:
		return nil
	}
}

// Observer receives protocol events; the engine aggregates them into the
// paper's metrics. Implementations must tolerate being called from any node.
type Observer interface {
	// Generated fires when a source creates a message.
	Generated(hash g2gcrypto.Digest, id message.ID, src, dst trace.NodeID, at sim.Time)
	// Replicated fires when a relay accepts custody of a new copy.
	Replicated(hash g2gcrypto.Digest, from, to trace.NodeID, at sim.Time)
	// Delivered fires when the destination first obtains the message.
	Delivered(hash g2gcrypto.Digest, at sim.Time)
	// Detected fires when a node assembles a valid proof of misbehavior.
	// ttlExpiry is generation + Delta1 for the message that exposed the
	// deviation (the paper reports detection time relative to it).
	Detected(accused trace.NodeID, reason wire.MisbehaviorReason, hash g2gcrypto.Digest, at, ttlExpiry sim.Time)
	// Tested fires on every completed test-phase challenge.
	Tested(accused trace.NodeID, passed bool, at sim.Time)
}

// RelayObserver is an optional Observer extension for auditors that verify
// the Give2Get accountability machinery itself. When the Observer of an Env
// also implements it, the G2G protocols hand it every proof of relay they
// validated during a handoff — the signed wire document, not a digest — so
// an external checker can re-verify the PoR chain against the crypto
// provider. The notification fires right after the corresponding Replicated
// event.
type RelayObserver interface {
	RelayProven(por wire.Signed, at sim.Time)
}

// PoMObserver is an optional Observer extension receiving every broadcast
// proof of misbehavior as the accuser assembled it, immediately after the
// corresponding Detected event, so an auditor can re-validate envelope and
// evidence.
type PoMObserver interface {
	MisbehaviorReported(pom wire.Signed, at sim.Time)
}

// NopObserver discards all events.
type NopObserver struct{}

var _ Observer = NopObserver{}

// Generated implements Observer.
func (NopObserver) Generated(g2gcrypto.Digest, message.ID, trace.NodeID, trace.NodeID, sim.Time) {}

// Replicated implements Observer.
func (NopObserver) Replicated(g2gcrypto.Digest, trace.NodeID, trace.NodeID, sim.Time) {}

// Delivered implements Observer.
func (NopObserver) Delivered(g2gcrypto.Digest, sim.Time) {}

// Detected implements Observer.
func (NopObserver) Detected(trace.NodeID, wire.MisbehaviorReason, g2gcrypto.Digest, sim.Time, sim.Time) {
}

// Tested implements Observer.
func (NopObserver) Tested(trace.NodeID, bool, sim.Time) {}

// Env bundles the services shared by every node of a run.
type Env struct {
	Sys      g2gcrypto.System
	Params   Params
	Observer Observer
	RNG      *sim.RNG
	// Broadcast distributes a proof of misbehavior to the whole network.
	// The engine wires it to deliver to every node. May be nil in tests.
	Broadcast func(pom wire.Signed)

	// stats and crypto are the optional telemetry collectors attached with
	// SetMetrics; both are nil-safe, so an uninstrumented Env records
	// nothing at the cost of a pointer test.
	stats  *obs.ProtocolStats
	crypto *obs.CryptoStats
	// spans is the optional span recorder attached with SetSpans. Like the
	// Env itself it belongs to one single-threaded run; nil (the default for
	// unit-test Envs) disables region profiling at the cost of a pointer test.
	spans *obs.SpanRecorder

	// wireScratch is the run-wide signing-input buffer. An Env serves
	// exactly one single-threaded run, so one scratch is enough for every
	// node's sign/verify traffic.
	wireScratch wire.Scratch

	// proofs coalesces the run's storage proofs: the source's recomputation
	// of a relay's proof immediately follows it over the same bytes, so the
	// memo computes the pair once. Transient (never checkpointed): a resumed
	// run starts with a miss.
	proofs g2gcrypto.ProofMemo

	// pomCache memoizes validatePoM verdicts by signature bytes. A proof of
	// misbehavior is broadcast to the whole population, and its validity is
	// a pure function of the document, so verifying the envelope and
	// evidence once per broadcast instead of once per receiver removes an
	// O(population) factor of signature checks. The cache is transient
	// (never checkpointed): a resumed run just re-verifies.
	pomCache map[string]pomVerdict
}

// pomVerdict is one memoized proof-of-misbehavior validation.
type pomVerdict struct {
	accused trace.NodeID
	ok      bool
}

// pomCacheLimit bounds the memo; PoMs live only as long as their broadcast
// instant, so the cache is cleared wholesale when it grows past this.
const pomCacheLimit = 1024

// SetMetrics attaches the run's telemetry registry to the environment and
// teaches it the wire-kind names for snapshots. A nil registry detaches.
func (e *Env) SetMetrics(m *obs.Metrics) {
	if m == nil {
		e.stats, e.crypto = nil, nil
		return
	}
	e.stats, e.crypto = &m.Protocol, &m.Crypto
	m.Protocol.SetKindNamer(func(k uint8) string { return wire.Kind(k).String() })
}

// SetSpans attaches a span recorder to the environment, enabling per-region
// profiling of the protocol steps (relay/test/decide, PoR/PoM, heavy HMAC).
// A nil recorder detaches.
func (e *Env) SetSpans(r *obs.SpanRecorder) { e.spans = r }

// validatePoM verifies a broadcast proof of misbehavior — envelope signature,
// body type, evidence signed by the accused — memoizing the verdict per
// document so a broadcast to N nodes costs one verification. The verdict is a
// pure function of the signed document, so memoization cannot perturb
// determinism. The signature bytes key the cache (string conversion of the
// lookup key is allocation-free).
func (e *Env) validatePoM(pom wire.Signed) (trace.NodeID, bool) {
	if v, ok := e.pomCache[string(pom.Sig)]; ok {
		return v.accused, v.ok
	}
	var v pomVerdict
	if pom.Verify(e.Sys) {
		if body, ok := pom.Body.(wire.Misbehavior); ok && body.ValidEvidence(e.Sys) {
			v = pomVerdict{accused: body.Accused, ok: true}
		}
	}
	if e.pomCache == nil || len(e.pomCache) >= pomCacheLimit {
		e.pomCache = make(map[string]pomVerdict, 64)
	}
	e.pomCache[string(pom.Sig)] = v
	return v.accused, v.ok
}

// NewEnv validates and assembles an environment.
func NewEnv(sys g2gcrypto.System, params Params, observer Observer, rng *sim.RNG) (*Env, error) {
	if sys == nil {
		return nil, errors.New("protocol: nil crypto system")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if observer == nil {
		observer = NopObserver{}
	}
	if rng == nil {
		rng = sim.NewRNG(1)
	}
	return &Env{Sys: sys, Params: params, Observer: observer, RNG: rng}, nil
}

// Node is the engine-facing surface of a protocol instance.
type Node interface {
	// ID returns the node this instance runs on.
	ID() trace.NodeID
	// Generate creates and takes custody of a new message from this node.
	Generate(now sim.Time, dest trace.NodeID, body []byte) error
	// ObserveMeeting records a physical encounter for quality bookkeeping;
	// it fires for every contact, even when no session follows.
	ObserveMeeting(now sim.Time, peer trace.NodeID)
	// RunSession performs this node's initiator role against peer: test
	// phases first, then relay phases. It reports whether any message
	// custody was transferred (the engine uses this for intra-contact
	// cascades). peer must run the same protocol.
	RunSession(now sim.Time, peer Node) (transferred bool, err error)
	// DeliverPoM hands the node a broadcast proof of misbehavior.
	DeliverPoM(pom wire.Signed)
	// Blacklisted reports whether this node refuses sessions with n.
	Blacklisted(n trace.NodeID) bool
	// MemoryMeter exposes the node's resource accounting (Section IV-C's
	// payoff inputs): operation counters and buffer occupancy.
	MemoryMeter
}

// ErrProtocolMismatch is returned when a session pairs different protocol
// implementations.
var ErrProtocolMismatch = errors.New("protocol: session peers run different protocols")

// New builds a protocol instance of the given kind for one node.
func New(kind Kind, env *Env, self g2gcrypto.Identity, behavior Behavior) (Node, error) {
	if env == nil {
		return nil, errors.New("protocol: nil env")
	}
	if self == nil {
		return nil, errors.New("protocol: nil identity")
	}
	switch kind {
	case Epidemic:
		return newEpidemicNode(env, self, behavior), nil
	case G2GEpidemic:
		return newG2GEpidemicNode(env, self, behavior), nil
	case DelegationFrequency, DelegationLastContact:
		return newDelegationNode(env, self, behavior, kind.UsesFrequency()), nil
	case G2GDelegationFrequency, G2GDelegationLastContact:
		return newG2GDelegationNode(env, self, behavior, kind.UsesFrequency()), nil
	default:
		return nil, fmt.Errorf("protocol: unknown kind %v", kind)
	}
}

// base carries the state common to all protocol implementations.
type base struct {
	usageTracker
	env       *Env
	self      g2gcrypto.Identity
	behavior  Behavior
	blacklist map[trace.NodeID]struct{}
	// digestScratch backs this node's sortedDigestsInto iterations; see
	// order.go for the aliasing discipline.
	digestScratch []g2gcrypto.Digest
}

// signed wraps signing, accounting for the signature the node spends and
// the signed message's kind and encoded size in the telemetry. The signing
// input is encoded into the Env's shared scratch buffer (runs are
// single-threaded, and providers never retain the input).
func (b *base) signed(at sim.Time, body wire.Body) wire.Signed {
	b.noteSign()
	s := b.env.wireScratch.Sign(b.self, at, body)
	b.env.stats.NoteWire(uint8(body.Kind()), wire.SizeOf(s))
	return s
}

// heavyHMAC computes the storage proof, accounting both the per-node usage
// and the run telemetry (count, wall time, iterations, crypto span). The
// Env's proof memo serves the source's recomputation of a relay's proof
// without a second keystream walk; the accounting is the same either way.
func (b *base) heavyHMAC(msg, seed []byte, iterations int) g2gcrypto.Digest {
	b.noteHMAC(iterations)
	return b.env.proofs.HeavyHMAC(b.env.crypto, b.env.spans, msg, seed, iterations)
}

// verifyHeavyHMAC verifies a storage proof with the same accounting,
// comparing in constant time.
func (b *base) verifyHeavyHMAC(msg, seed []byte, iterations int, response g2gcrypto.Digest) bool {
	want := b.heavyHMAC(msg, seed, iterations)
	return hmac.Equal(want[:], response[:])
}

// noteTestStarted, noteTested, and noteQualityUpdate forward to the run
// telemetry (nil-safe).
func (b *base) noteTestStarted()       { b.env.stats.NoteTestStarted() }
func (b *base) noteTested(passed bool) { b.env.stats.NoteTested(passed) }
func (b *base) noteQualityUpdate()     { b.env.stats.NoteQualityUpdate() }

// verified wraps envelope verification, accounting for the public-key
// operation.
func (b *base) verified(s wire.Signed) bool {
	b.noteVerify()
	return b.env.wireScratch.Verify(b.env.Sys, s)
}

func newBase(env *Env, self g2gcrypto.Identity, behavior Behavior) base {
	return base{
		env:       env,
		self:      self,
		behavior:  behavior,
		blacklist: make(map[trace.NodeID]struct{}),
	}
}

func (b *base) ID() trace.NodeID { return b.self.Node() }

func (b *base) Blacklisted(n trace.NodeID) bool {
	_, ok := b.blacklist[n]
	return ok
}

// deviates reports whether this node's deviation applies against peer.
func (b *base) deviates(peer trace.NodeID) bool {
	return b.behavior.activeAgainst(b.self.Node(), peer)
}

// acceptPoM validates a broadcast proof of misbehavior and blacklists the
// accused. Invalid proofs (bad envelope or evidence not signed by the
// accused) are ignored, so nobody can frame a faithful node. Validation is
// memoized per document on the Env: every receiver of a broadcast reaches the
// same verdict, so only the first pays the signature checks.
func (b *base) acceptPoM(pom wire.Signed) {
	b.env.spans.Enter(obs.SpanPoM)
	defer b.env.spans.Exit()
	accused, ok := b.env.validatePoM(pom)
	if !ok || accused == b.self.Node() {
		return
	}
	b.blacklist[accused] = struct{}{}
}

// reportMisbehavior assembles, validates, and broadcasts a PoM, and notifies
// the observer. ttlExpiry anchors the paper's detection-time metric.
func (b *base) reportMisbehavior(now sim.Time, accused trace.NodeID, reason wire.MisbehaviorReason,
	evidence []wire.Signed, hash g2gcrypto.Digest, ttlExpiry sim.Time) {

	// The PoM span covers assembly and validation of the accuser's proof; the
	// broadcast stays outside it, so each receiver's acceptPoM opens its own.
	b.env.spans.Enter(obs.SpanPoM)
	body := wire.Misbehavior{Accused: accused, Reason: reason, Evidence: evidence}
	if !body.ValidEvidence(b.env.Sys) {
		// The accuser itself must hold verifiable evidence; otherwise the
		// network would ignore the broadcast anyway.
		b.env.spans.Exit()
		return
	}
	b.blacklist[accused] = struct{}{}
	pom := b.signed(now, body)
	b.env.Observer.Detected(accused, reason, hash, now, ttlExpiry)
	if po, ok := b.env.Observer.(PoMObserver); ok {
		po.MisbehaviorReported(pom, now)
	}
	b.env.spans.Exit()
	if b.env.Broadcast != nil {
		b.env.Broadcast(pom)
	}
}

// notifyRelayProven hands a validated proof of relay to the observer's
// RelayObserver extension, if it has one. Call sites fire it right after the
// Replicated event of the same handoff.
func (b *base) notifyRelayProven(por wire.Signed, at sim.Time) {
	if ro, ok := b.env.Observer.(RelayObserver); ok {
		ro.RelayProven(por, at)
	}
}
