package g2gcrypto

import (
	"bytes"
	"time"

	"give2get/internal/obs"
)

// ProofMemo remembers the last storage proof it computed, so the source's
// recomputation of a relay's proof — which by construction hashes the same
// bytes and immediately follows it in the test phase — costs one keystream
// walk instead of two. It holds its own copy of the message and seed, never
// an alias of node state, so a deviant that edits its copy gets a miss, and
// it answers only on an exact (message, seed, iterations) match. A memo
// belongs to one single-threaded run, like the Env that owns it.
type ProofMemo struct {
	msg, seed  []byte
	iterations int
	out        Digest
	valid      bool
	scratch    HMACScratch
}

// HeavyHMAC returns HeavyHMAC(message, seed, iterations), computing it only
// when the arguments differ from the previous call's. Every call notes one
// heavy-HMAC operation and one crypto span, so usage and telemetry reconcile
// whether or not the proof was computed; a hit notes zero wall time. st and
// spans may be nil.
func (m *ProofMemo) HeavyHMAC(st *obs.CryptoStats, spans *obs.SpanRecorder, message, seed []byte, iterations int) Digest {
	if m.valid && m.iterations == iterations && bytes.Equal(m.seed, seed) && bytes.Equal(m.msg, message) {
		st.NoteHeavyHMAC(0, iterations)
		spans.Mark(obs.SpanCrypto)
		return m.out
	}
	spans.Enter(obs.SpanCrypto)
	if st.Timed() {
		start := time.Now()
		m.out = m.scratch.HeavyHMAC(message, seed, iterations)
		st.NoteHeavyHMAC(time.Since(start), iterations)
	} else {
		m.out = m.scratch.HeavyHMAC(message, seed, iterations)
		st.NoteHeavyHMAC(0, iterations)
	}
	spans.Exit()
	m.msg = append(m.msg[:0], message...)
	m.seed = append(m.seed[:0], seed...)
	m.iterations = iterations
	m.valid = true
	return m.out
}
