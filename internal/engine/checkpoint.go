package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"give2get/internal/invariant"
	"give2get/internal/metrics"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// Checkpointing serializes a run's full deterministic state — virtual clock,
// future event set, RNG stream position, per-node protocol state, metrics,
// and the auditor's shadow model — into a versioned, checksummed file written
// atomically (temp file + rename, so a crash mid-write never corrupts the
// previous good checkpoint). Resume rebuilds the engine from the same Config,
// restores the snapshot, and continues; because snapshots are taken at a
// control barrier that fires after every same-instant protocol event, a
// killed-and-resumed run replays the exact event sequence of an uninterrupted
// one, down to the audit digest.

// CheckpointConfig configures periodic checkpoint emission.
type CheckpointConfig struct {
	// Path is the checkpoint file; each emission atomically replaces it.
	Path string
	// Every is the virtual-time period between checkpoints. 0 disables
	// periodic emission; a graceful shutdown still flushes one final
	// checkpoint to Path when Path is set.
	Every sim.Time
}

// Checkpoint and resume errors.
var (
	// ErrCheckpointCorrupt marks a checkpoint file that failed structural
	// validation: bad magic, truncation, checksum mismatch, or an
	// undecodable payload.
	ErrCheckpointCorrupt = errors.New("engine: corrupt checkpoint")
	// ErrCheckpointVersion marks a checkpoint from an incompatible format
	// version.
	ErrCheckpointVersion = errors.New("engine: unsupported checkpoint version")
	// ErrCheckpointMismatch marks a structurally valid checkpoint that was
	// captured under a different configuration or trace.
	ErrCheckpointMismatch = errors.New("engine: checkpoint does not match configuration")
	// ErrInterrupted is returned by an interrupted run (context cancellation
	// or a scheduled stop); any configured checkpoint was flushed first.
	ErrInterrupted = errors.New("engine: run interrupted")
)

const (
	checkpointMagic   = "G2GC"
	checkpointVersion = 1
	// checkpointHeaderLen is magic + version + SHA-256 checksum.
	checkpointHeaderLen = 4 + 4 + sha256.Size
)

// PriControl is the priority band of the engine's control events (periodic
// checkpoints, graceful stops). It sits above sim.PriNormal, so a control
// event fires only after every same-instant protocol event — the barrier
// that makes a mid-run snapshot equivalent to a between-instants one.
const PriControl int64 = sim.PriNormal + 1

// Control-event payloads (sim.Event.P).
const (
	ctrlPeriodic uint64 = iota
	ctrlStop
)

// contactEndEvent is one queued contact-end, i.e. one currently active
// contact.
type contactEndEvent struct {
	At   sim.Time
	Pri  int64
	A, B trace.NodeID
}

// checkpoint is the serialized run state. Every map beneath it is flattened
// in sorted order, so identical run states encode to identical payloads.
type checkpoint struct {
	Fingerprint [32]byte
	Now         sim.Time

	// Contact scheduler: how many contacts the cursor has yielded, the
	// contact whose start event is in flight (when the stream is not yet
	// exhausted), and the end events of every active contact.
	CursorClosed bool
	CursorIdx    int
	Pending      trace.Contact
	PendingAt    sim.Time
	PendingPri   int64
	PendingIdx   uint64
	ContactEnds  []contactEndEvent

	// NextGen is the index of the next workload generation to fire; the
	// generations themselves are redrawn from the seed on resume.
	NextGen int

	EnvRNG sim.RNGState

	Nodes     []protocol.NodeState
	Collector metrics.CollectorState
	Counters  obs.CounterState
	Auditor   *invariant.State
}

// configFingerprint hashes every deterministic run parameter; a checkpoint
// only resumes under a configuration with the same fingerprint.
func configFingerprint(cfg Config) [32]byte {
	crypto := cfg.Crypto
	if crypto == "" {
		crypto = CryptoFast
	}
	h := sha256.New()
	fmt.Fprintf(h, "proto=%d seed=%d crypto=%s pop=%d\n",
		cfg.Protocol, cfg.Seed, crypto, cfg.Trace.Nodes())
	fmt.Fprintf(h, "params=%d,%d,%d,%d,%d\n",
		cfg.Params.Delta1, cfg.Params.Delta2, cfg.Params.MaxRelays,
		cfg.Params.HeavyHMACIterations, cfg.Params.QualityFrame)
	fmt.Fprintf(h, "window=%d,%d warmup=%d extra=%d\n",
		cfg.WindowFrom, cfg.WindowTo, cfg.Warmup, cfg.RunExtra)
	fmt.Fprintf(h, "interval=%d quiet=%d payload=%d\n",
		cfg.MessageInterval, cfg.GenerationQuiet, cfg.PayloadBytes)
	fmt.Fprintf(h, "deviants=%v deviation=%d outsiders=%t audit=%t\n",
		cfg.Deviants, cfg.Deviation, cfg.OnlyOutsiders, cfg.Audit != nil)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// encodeCheckpoint renders the full file: magic, version, checksum, payload.
func encodeCheckpoint(ck *checkpoint) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return nil, fmt.Errorf("engine: encode checkpoint: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	out := make([]byte, 0, checkpointHeaderLen+payload.Len())
	out = append(out, checkpointMagic...)
	out = binary.BigEndian.AppendUint32(out, checkpointVersion)
	out = append(out, sum[:]...)
	out = append(out, payload.Bytes()...)
	return out, nil
}

// parseCheckpoint validates and decodes a checkpoint file. It never panics:
// truncation, bit flips, a bad magic or version, and undecodable payloads
// all come back as errors.
func parseCheckpoint(data []byte) (*checkpoint, error) {
	if len(data) < checkpointHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCheckpointCorrupt, len(data))
	}
	if string(data[:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, data[:4])
	}
	if v := binary.BigEndian.Uint32(data[4:8]); v != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrCheckpointVersion, v, checkpointVersion)
	}
	var sum [sha256.Size]byte
	copy(sum[:], data[8:checkpointHeaderLen])
	payload := data[checkpointHeaderLen:]
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	ck := new(checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(ck); err != nil {
		return nil, fmt.Errorf("%w: decode payload: %v", ErrCheckpointCorrupt, err)
	}
	return ck, nil
}

// atomicWriteFile writes data to path through a temp file in the same
// directory plus a rename, so the file at path is always either the previous
// checkpoint or the new one, never a torn write.
func atomicWriteFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".g2gc-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// captureCheckpoint snapshots the run at a control barrier. Everything still
// in the queue is strictly in the future (the barrier fired after all
// same-instant events), so the future event set is exactly: the active
// contacts' ends, at most one pending contact start, at most one pending
// workload generation, and the rule-reconstructible closures (memory ticks
// and phase probes).
func (e *engine) captureCheckpoint(s *sim.Simulator) (*checkpoint, error) {
	ck := &checkpoint{
		Fingerprint:  configFingerprint(e.cfg),
		Now:          s.Now(),
		CursorClosed: e.cursor == nil,
		CursorIdx:    e.cursorIdx,
		NextGen:      len(e.gens),
		EnvRNG:       e.env.RNG.State(),
		Collector:    e.collector.State(),
		Counters:     e.metrics.CounterState(),
	}
	var scanErr error
	havePending, haveGen := false, false
	s.PendingEvents(func(ev sim.Event) {
		switch {
		case ev.Pri >= sim.PriNormal:
			// Closures (probes, memory ticks) and control events are
			// reconstructed by rule on resume.
		case ev.Op == opContactStart:
			if havePending {
				scanErr = errors.New("engine: checkpoint found two pending contact starts")
				return
			}
			havePending = true
			ck.Pending = e.pending
			ck.PendingAt = ev.At
			ck.PendingPri = ev.Pri
			ck.PendingIdx = ev.P
		case ev.Op == opContactEnd:
			ck.ContactEnds = append(ck.ContactEnds, contactEndEvent{
				At: ev.At, Pri: ev.Pri, A: trace.NodeID(ev.A), B: trace.NodeID(ev.B),
			})
		case ev.Op == opWorkloadGen:
			if haveGen {
				scanErr = errors.New("engine: checkpoint found two pending workload events")
				return
			}
			haveGen = true
			ck.NextGen = int(ev.P)
		}
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if havePending == ck.CursorClosed {
		return nil, errors.New("engine: contact cursor and pending start disagree")
	}
	sort.Slice(ck.ContactEnds, func(i, j int) bool {
		if ck.ContactEnds[i].At != ck.ContactEnds[j].At {
			return ck.ContactEnds[i].At < ck.ContactEnds[j].At
		}
		return ck.ContactEnds[i].Pri < ck.ContactEnds[j].Pri
	})
	ck.Nodes = make([]protocol.NodeState, len(e.nodes))
	for i, n := range e.nodes {
		sn, ok := n.(protocol.Stateful)
		if !ok {
			return nil, fmt.Errorf("engine: node %d (%T) is not checkpointable", i, n)
		}
		ck.Nodes[i] = sn.CaptureState()
	}
	if e.auditor != nil {
		ast, err := e.auditor.State()
		if err != nil {
			return nil, err
		}
		ck.Auditor = &ast
	}
	return ck, nil
}

// writeCheckpoint captures and atomically persists one checkpoint.
func (e *engine) writeCheckpoint(s *sim.Simulator) error {
	ck, err := e.captureCheckpoint(s)
	if err != nil {
		return err
	}
	data, err := encodeCheckpoint(ck)
	if err != nil {
		return err
	}
	return atomicWriteFile(e.cfg.Checkpoint.Path, data)
}

// Resume restores a checkpointed run and continues it to completion. cfg
// must be the same configuration the checkpoint was written under (verified
// by fingerprint); it may carry a different Checkpoint, Context, or output
// sinks — those describe the resuming process, not the run state.
func Resume(path string, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Crypto == CryptoReal {
		return nil, errors.New("engine: resume requires the deterministic fast crypto provider")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := parseCheckpoint(data)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if ck.Fingerprint != configFingerprint(e.cfg) {
		return nil, fmt.Errorf("%w: fingerprint mismatch", ErrCheckpointMismatch)
	}
	s := sim.New()
	s.SetStats(&e.metrics.Sim)
	defer e.closeCursor()
	if err := e.restoreCheckpoint(s, ck); err != nil {
		return nil, err
	}
	if err := e.scheduleResumedClosures(s); err != nil {
		return nil, err
	}
	return e.finishRun(s)
}

// restoreCheckpoint rebuilds the engine and the kernel's future event set
// from a snapshot.
func (e *engine) restoreCheckpoint(s *sim.Simulator, ck *checkpoint) error {
	if err := s.SetNow(ck.Now); err != nil {
		return err
	}
	if err := e.env.RNG.Restore(ck.EnvRNG); err != nil {
		return err
	}
	if len(ck.Nodes) != len(e.nodes) {
		return fmt.Errorf("%w: %d node states for %d nodes", ErrCheckpointMismatch, len(ck.Nodes), len(e.nodes))
	}
	for i, n := range e.nodes {
		sn, ok := n.(protocol.Stateful)
		if !ok {
			return fmt.Errorf("engine: node %d (%T) is not checkpointable", i, n)
		}
		if err := sn.RestoreState(ck.Nodes[i]); err != nil {
			return fmt.Errorf("engine: restore node %d: %w", i, err)
		}
	}
	e.collector.Restore(ck.Collector)
	e.metrics.AddCounterState(ck.Counters)
	if e.auditor != nil {
		if ck.Auditor == nil {
			return fmt.Errorf("%w: audited run resuming from an unaudited checkpoint", ErrCheckpointMismatch)
		}
		if err := e.auditor.Restore(*ck.Auditor); err != nil {
			return err
		}
	}

	// Workload: redraw every generation from the seed (same draws, same
	// bodies), discard the consumed prefix, and schedule the next one.
	e.drawWorkload()
	if ck.NextGen < 0 || ck.NextGen > len(e.gens) {
		return fmt.Errorf("%w: workload position %d of %d", ErrCheckpointCorrupt, ck.NextGen, len(e.gens))
	}
	for i := 0; i < ck.NextGen; i++ {
		e.gens[i].body = nil
	}
	if err := e.scheduleNextGen(s, ck.NextGen); err != nil {
		return err
	}

	// Contacts: replay the cursor to the checkpointed position and verify
	// the trace still agrees with the snapshot, then re-enqueue the pending
	// start exactly as it was.
	e.cursorIdx = ck.CursorIdx
	if !ck.CursorClosed {
		if ck.CursorIdx < 1 || ck.PendingIdx != uint64(ck.CursorIdx-1) ||
			ck.PendingPri != 2*int64(ck.PendingIdx) {
			return fmt.Errorf("%w: inconsistent contact cursor position", ErrCheckpointCorrupt)
		}
		cur, err := e.cfg.Trace.Cursor()
		if err != nil {
			return err
		}
		e.cursor = cur
		var last trace.Contact
		for i := 0; i < ck.CursorIdx; i++ {
			c, ok := cur.Next()
			if !ok {
				if err := cur.Err(); err != nil {
					return err
				}
				return fmt.Errorf("%w: trace has %d contacts, checkpoint consumed %d",
					ErrCheckpointMismatch, i, ck.CursorIdx)
			}
			last = c
		}
		if last != ck.Pending {
			return fmt.Errorf("%w: contact %d differs from the checkpointed one",
				ErrCheckpointMismatch, ck.CursorIdx-1)
		}
		e.pending = ck.Pending
		if err := s.ScheduleEvent(sim.Event{
			At:  ck.PendingAt,
			Pri: ck.PendingPri,
			H:   e,
			Op:  opContactStart,
			P:   ck.PendingIdx,
		}); err != nil {
			return err
		}
	}

	// Active contacts: each queued end event is one contact in progress;
	// re-enqueue it and rebuild the refcounts and neighbor lists it implies.
	for _, ce := range ck.ContactEnds {
		if err := s.ScheduleEvent(sim.Event{
			At:  ce.At,
			Pri: ce.Pri,
			H:   e,
			Op:  opContactEnd,
			A:   int32(ce.A),
			B:   int32(ce.B),
		}); err != nil {
			return err
		}
		key := trace.MakePairKey(ce.A, ce.B)
		e.active[key]++
		if e.active[key] == 1 {
			e.neighbors[ce.A] = insertNeighbor(e.neighbors[ce.A], ce.B)
			e.neighbors[ce.B] = insertNeighbor(e.neighbors[ce.B], ce.A)
		}
	}
	return nil
}

// scheduleResumedClosures re-creates the closure events (memory ticks and
// phase probes) a fresh run schedules up front, preserving their original
// same-instant scheduling order:
//   - before the window: the first memory tick at WindowFrom precedes the
//     WindowFrom probe (scheduleAll runs before the probes), and both
//     precede the WindowTo probe;
//   - inside the window (or the drain): the WindowTo probe was scheduled at
//     setup, so it precedes any chained memory tick landing on the same
//     instant.
func (e *engine) scheduleResumedClosures(s *sim.Simulator) error {
	now := s.Now()
	interval := protocol.MemorySampleInterval()
	tick := e.memoryTick()
	if now < e.cfg.WindowFrom {
		if _, err := s.Schedule(e.cfg.WindowFrom, tick); err != nil {
			return err
		}
		if _, err := s.Schedule(e.cfg.WindowFrom, e.probeWindowFrom); err != nil {
			return err
		}
		if _, err := s.Schedule(e.cfg.WindowTo, e.probeWindowTo); err != nil {
			return err
		}
		e.emitPhase(now, obs.PhaseWarmup)
		return nil
	}
	if now < e.cfg.WindowTo {
		if _, err := s.Schedule(e.cfg.WindowTo, e.probeWindowTo); err != nil {
			return err
		}
		e.emitPhase(now, obs.PhaseWindow)
	} else {
		e.emitPhase(now, obs.PhaseDrain)
	}
	// The barrier fired after any tick at the snapshot instant, so the next
	// tick is the first multiple of the interval strictly after it, chained
	// under the same guard the tick itself uses.
	k := (now-e.cfg.WindowFrom)/interval + 1
	next := e.cfg.WindowFrom + sim.Time(k)*interval
	if next < e.endAt {
		if _, err := s.Schedule(next, tick); err != nil {
			return err
		}
	}
	return nil
}

// nextControlAt returns the first periodic-checkpoint instant strictly after
// now, keeping the cadence anchored at the run start across resumes.
func (e *engine) nextControlAt(now sim.Time) sim.Time {
	every := e.cfg.Checkpoint.Every
	if now < e.startAt {
		return e.startAt + every
	}
	k := (now-e.startAt)/every + 1
	return e.startAt + sim.Time(k)*every
}

// maybeScheduleStop enqueues the graceful-stop control event once the
// watcher has observed a cancelled context. The control priority makes the
// stop a barrier: every same-instant protocol event completes first, so the
// flushed checkpoint is resumable.
func (e *engine) maybeScheduleStop(s *sim.Simulator) {
	if !e.cancelled.Load() || e.stopScheduled {
		return
	}
	e.stopScheduled = true
	if err := s.ScheduleEvent(sim.Event{
		At:  s.Now(),
		Pri: PriControl,
		H:   e,
		Op:  opControl,
		P:   ctrlStop,
	}); err != nil {
		panic(fmt.Sprintf("engine: stop event: %v", err))
	}
}

// handleControl runs one control event: flush a checkpoint and either stop
// the run or chain the next periodic emission.
func (e *engine) handleControl(s *sim.Simulator, ev sim.Event) {
	stop := ev.P == ctrlStop || e.cancelled.Load()
	if e.cfg.Checkpoint.Path != "" {
		if err := e.writeCheckpoint(s); err != nil {
			e.stopErr = fmt.Errorf("engine: checkpoint write failed: %w", err)
			s.Stop()
			return
		}
	}
	if stop {
		e.stopErr = fmt.Errorf("%w at %v", ErrInterrupted, s.Now())
		s.Stop()
		return
	}
	if e.cfg.Checkpoint.Every > 0 {
		if next := e.nextControlAt(s.Now()); next < e.endAt {
			if err := s.ScheduleEvent(sim.Event{
				At:  next,
				Pri: PriControl,
				H:   e,
				Op:  opControl,
				P:   ctrlPeriodic,
			}); err != nil {
				panic(fmt.Sprintf("engine: control event: %v", err))
			}
		}
	}
}
