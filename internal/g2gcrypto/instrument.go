package g2gcrypto

import (
	"crypto/ed25519"
	"time"

	"give2get/internal/obs"
	"give2get/internal/trace"
)

// Instrument wraps sys so that every primitive records its count and wall
// time into st. A nil st returns sys unchanged; the wrapper is otherwise
// transparent — it changes no bytes, so instrumented runs stay deterministic
// in virtual time. If sys is a CertifiedSystem, the wrapper is too.
func Instrument(sys System, st *obs.CryptoStats) System {
	if st == nil || sys == nil {
		return sys
	}
	st.SetProvider(sys.Name())
	in := &instrumentedSystem{inner: sys, stats: st}
	if cs, ok := sys.(CertifiedSystem); ok {
		return &instrumentedCertifiedSystem{instrumentedSystem: in, certified: cs}
	}
	return in
}

type instrumentedSystem struct {
	inner System
	stats *obs.CryptoStats
}

func (s *instrumentedSystem) Name() string { return s.inner.Name() }
func (s *instrumentedSystem) Nodes() int   { return s.inner.Nodes() }

func (s *instrumentedSystem) Identity(n trace.NodeID) (Identity, error) {
	id, err := s.inner.Identity(n)
	if err != nil {
		return nil, err
	}
	return &instrumentedIdentity{inner: id, stats: s.stats}, nil
}

func (s *instrumentedSystem) Verify(signer trace.NodeID, data []byte, sig Signature) bool {
	if !s.stats.Timed() {
		ok := s.inner.Verify(signer, data, sig)
		s.stats.NoteVerify(0)
		return ok
	}
	start := time.Now()
	ok := s.inner.Verify(signer, data, sig)
	s.stats.NoteVerify(time.Since(start))
	return ok
}

func (s *instrumentedSystem) SealFor(dest trace.NodeID, plaintext []byte) ([]byte, error) {
	if !s.stats.Timed() {
		box, err := s.inner.SealFor(dest, plaintext)
		s.stats.NoteSeal(0)
		return box, err
	}
	start := time.Now()
	box, err := s.inner.SealFor(dest, plaintext)
	s.stats.NoteSeal(time.Since(start))
	return box, err
}

type instrumentedCertifiedSystem struct {
	*instrumentedSystem
	certified CertifiedSystem
}

func (s *instrumentedCertifiedSystem) AuthorityKey() ed25519.PublicKey {
	return s.certified.AuthorityKey()
}

func (s *instrumentedCertifiedSystem) Certificate(n trace.NodeID) (Certificate, error) {
	return s.certified.Certificate(n)
}

type instrumentedIdentity struct {
	inner Identity
	stats *obs.CryptoStats
}

func (id *instrumentedIdentity) Node() trace.NodeID { return id.inner.Node() }

func (id *instrumentedIdentity) Sign(data []byte) Signature {
	if !id.stats.Timed() {
		sig := id.inner.Sign(data)
		id.stats.NoteSign(0)
		return sig
	}
	start := time.Now()
	sig := id.inner.Sign(data)
	id.stats.NoteSign(time.Since(start))
	return sig
}

func (id *instrumentedIdentity) Open(box []byte) ([]byte, error) {
	if !id.stats.Timed() {
		out, err := id.inner.Open(box)
		id.stats.NoteOpen(0)
		return out, err
	}
	start := time.Now()
	out, err := id.inner.Open(box)
	id.stats.NoteOpen(time.Since(start))
	return out, err
}
