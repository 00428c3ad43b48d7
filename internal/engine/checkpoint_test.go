package engine

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// mustInterrupt runs cfg expecting a graceful interruption that leaves a
// checkpoint behind.
func mustInterrupt(t *testing.T, cfg Config) {
	t.Helper()
	res, err := Run(cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got (%v, %v), want ErrInterrupted", res, err)
	}
	if _, err := os.Stat(cfg.Checkpoint.Path); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
}

// assertSameOutcome compares everything a resumed run must reproduce: the
// audit digest (the byte-level oracle), the full metric summaries, per-node
// usage, and the settle time.
func assertSameOutcome(t *testing.T, ref, got *Result) {
	t.Helper()
	if ref.Audit == nil || got.Audit == nil {
		t.Fatal("missing audit report")
	}
	if got.Audit.Digest != ref.Audit.Digest {
		t.Errorf("audit digest diverged:\n  uninterrupted %s\n  resumed       %s",
			ref.Audit.Digest, got.Audit.Digest)
	}
	if got.Audit.Events != ref.Audit.Events {
		t.Errorf("audit events = %d, want %d", got.Audit.Events, ref.Audit.Events)
	}
	if !reflect.DeepEqual(got.Summary, ref.Summary) {
		t.Errorf("summary diverged:\n  uninterrupted %+v\n  resumed       %+v", ref.Summary, got.Summary)
	}
	if !reflect.DeepEqual(got.Detection, ref.Detection) {
		t.Errorf("detection summary diverged:\n  uninterrupted %+v\n  resumed       %+v", ref.Detection, got.Detection)
	}
	if !reflect.DeepEqual(got.Usage, ref.Usage) {
		t.Error("per-node usage diverged after resume")
	}
	if got.EndedAt != ref.EndedAt {
		t.Errorf("ended at %v, want %v", got.EndedAt, ref.EndedAt)
	}
}

// TestKillResumeDigestIdentical is the tentpole oracle: a run killed at an
// arbitrary instant and resumed from its flushed checkpoint must be
// indistinguishable — byte-identical audit digest, identical summaries —
// from the same run left alone. The kill points cover all three phases
// (warmup, window, drain) across four protocol/deviant configurations.
func TestKillResumeDigestIdentical(t *testing.T) {
	cases := []struct {
		name      string
		kind      protocol.Kind
		deviants  []trace.NodeID
		deviation protocol.Deviation
		stopAt    sim.Time
	}{
		// Killed during warmup: no traffic yet. Epidemic's ObserveMeeting is
		// a no-op, so the delegation case is the one that restores a
		// half-built quality table.
		{"epidemic-warmup-kill", protocol.Epidemic, nil, protocol.Honest, 5 * sim.Hour},
		{"g2g-delegation-warmup-kill", protocol.G2GDelegationLastContact,
			[]trace.NodeID{2, 7}, protocol.Liar, 5 * sim.Hour},
		// Killed mid-window at an odd instant: live custody, pending tests,
		// active contacts, a partially consumed workload.
		{"g2g-epidemic-window-kill", protocol.G2GEpidemic,
			[]trace.NodeID{2, 7, 10}, protocol.Dropper, 14*sim.Hour + 17*sim.Minute},
		// Killed during the drain: generation over, test phases resolving.
		{"g2g-delegation-drain-kill", protocol.G2GDelegationFrequency,
			[]trace.NodeID{2, 7, 10}, protocol.Cheater, 16*sim.Hour + 20*sim.Minute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := auditConfig(t, tc.kind)
			cfg.Deviants = tc.deviants
			cfg.Deviation = tc.deviation

			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			killCfg := cfg
			killCfg.Checkpoint = CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}
			killCfg.stopAt = tc.stopAt
			mustInterrupt(t, killCfg)

			got, err := Resume(killCfg.Checkpoint.Path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameOutcome(t, ref, got)
		})
	}
}

// TestKillResumeTwice chains two kills: the second checkpoint is written by
// a *resumed* engine, proving a resumed run is itself checkpointable.
func TestKillResumeTwice(t *testing.T) {
	cfg := auditConfig(t, protocol.G2GEpidemic)
	cfg.Deviants = []trace.NodeID{2, 7}
	cfg.Deviation = protocol.Dropper

	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	kill1 := cfg
	kill1.Checkpoint = CheckpointConfig{Path: filepath.Join(dir, "first.ckpt")}
	kill1.stopAt = 13*sim.Hour + 40*sim.Minute
	mustInterrupt(t, kill1)

	kill2 := cfg
	kill2.Checkpoint = CheckpointConfig{Path: filepath.Join(dir, "second.ckpt")}
	kill2.stopAt = 15*sim.Hour + 3*sim.Minute
	if res, err := Resume(kill1.Checkpoint.Path, kill2); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("second kill: got (%v, %v), want ErrInterrupted", res, err)
	}

	got, err := Resume(kill2.Checkpoint.Path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, ref, got)
}

// TestPeriodicCheckpointResumable runs to completion with periodic emission
// on and resumes from the last periodic snapshot: the replayed tail must
// land on the same digest. This exercises the ctrlPeriodic chain end to end,
// once on an honest G2G Epidemic run and once on a G2G Delegation run whose
// droppers fail tests, so snapshots land among failed verdicts, PoM
// broadcasts and blacklists.
func TestPeriodicCheckpointResumable(t *testing.T) {
	cases := []struct {
		name     string
		kind     protocol.Kind
		deviants []trace.NodeID
	}{
		{"g2g-epidemic", protocol.G2GEpidemic, nil},
		{"g2g-delegation-droppers", protocol.G2GDelegationFrequency, []trace.NodeID{2, 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := auditConfig(t, tc.kind)
			if tc.deviants != nil {
				cfg.Deviants = tc.deviants
				cfg.Deviation = protocol.Dropper
			}
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			ckptCfg := cfg
			ckptCfg.Checkpoint = CheckpointConfig{
				Path:  filepath.Join(t.TempDir(), "periodic.ckpt"),
				Every: 90 * sim.Minute,
			}
			full, err := Run(ckptCfg)
			if err != nil {
				t.Fatal(err)
			}
			if full.Audit.Digest != ref.Audit.Digest {
				t.Fatal("periodic checkpointing perturbed the run digest")
			}

			got, err := Resume(ckptCfg.Checkpoint.Path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameOutcome(t, ref, got)
		})
	}
}

// TestResumeRejectsCorruption takes one real checkpoint and mangles it every
// way the format must survive: truncations at and below every boundary, bit
// flips in header and payload, a wrong magic, an unknown version. Every
// variant must come back as an error — never a panic, never a silent
// mis-resume.
func TestResumeRejectsCorruption(t *testing.T) {
	cfg := auditConfig(t, protocol.G2GEpidemic)
	kill := cfg
	kill.Checkpoint = CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}
	kill.stopAt = 14 * sim.Hour
	mustInterrupt(t, kill)

	valid, err := os.ReadFile(kill.Checkpoint.Path)
	if err != nil {
		t.Fatal(err)
	}
	if ck, err := parseCheckpoint(valid); err != nil || ck == nil {
		t.Fatalf("valid checkpoint did not parse: %v", err)
	}

	mangle := func(name string, data []byte, want error) {
		t.Run(name, func(t *testing.T) {
			ck, err := parseCheckpoint(data)
			if err == nil {
				t.Fatalf("parsed a %s checkpoint: %+v", name, ck)
			}
			if want != nil && !errors.Is(err, want) {
				t.Fatalf("error = %v, want %v", err, want)
			}
			// The full Resume path must degrade just as gracefully.
			path := filepath.Join(t.TempDir(), "bad.ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if res, err := Resume(path, cfg); err == nil {
				t.Fatalf("resumed from a %s checkpoint: %+v", name, res)
			}
		})
	}

	mangle("empty", nil, ErrCheckpointCorrupt)
	mangle("truncated-header", valid[:checkpointHeaderLen-3], ErrCheckpointCorrupt)
	mangle("truncated-payload", valid[:len(valid)/2], ErrCheckpointCorrupt)
	mangle("truncated-one-byte", valid[:len(valid)-1], ErrCheckpointCorrupt)

	flip := func(i int) []byte {
		out := append([]byte(nil), valid...)
		out[i] ^= 0x40
		return out
	}
	mangle("bad-magic", flip(0), ErrCheckpointCorrupt)
	mangle("bad-version", flip(7), ErrCheckpointVersion)
	mangle("checksum-flip", flip(10), ErrCheckpointCorrupt)
	mangle("payload-flip", flip(checkpointHeaderLen+17), ErrCheckpointCorrupt)
	mangle("payload-tail-flip", flip(len(valid)-5), ErrCheckpointCorrupt)
}

// TestResumeRejectsMismatchedConfig pins the fingerprint gate: a checkpoint
// resumes only under the configuration it was captured from.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := auditConfig(t, protocol.G2GEpidemic)
	kill := cfg
	kill.Checkpoint = CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}
	kill.stopAt = 14 * sim.Hour
	mustInterrupt(t, kill)

	mutations := map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed++ },
		"protocol": func(c *Config) { c.Protocol = protocol.Epidemic },
		"window":   func(c *Config) { c.WindowTo += sim.Minute },
		"deviants": func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper },
		"interval": func(c *Config) { c.MessageInterval = sim.Minute },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			other := cfg
			mutate(&other)
			res, err := Resume(kill.Checkpoint.Path, other)
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("got (%v, %v), want ErrCheckpointMismatch", res, err)
			}
		})
	}
}

// TestCheckpointValidation pins the configuration gates.
func TestCheckpointValidation(t *testing.T) {
	cfg := baseConfig(t, protocol.Epidemic)
	cfg.Checkpoint = CheckpointConfig{Every: sim.Hour}
	if err := cfg.Validate(); err == nil {
		t.Error("interval without a path validated")
	}
	cfg.Checkpoint = CheckpointConfig{Path: "x.ckpt", Every: -sim.Hour}
	if err := cfg.Validate(); err == nil {
		t.Error("negative interval validated")
	}
	cfg.Checkpoint = CheckpointConfig{Path: "x.ckpt"}
	cfg.Crypto = CryptoReal
	if err := cfg.Validate(); err == nil {
		t.Error("checkpointing with real crypto validated")
	}
}

// FuzzParseCheckpoint hammers the parser with corrupted checkpoints:
// whatever the bytes, it must return an error or a checkpoint — never
// panic.
func FuzzParseCheckpoint(f *testing.F) {
	small, err := encodeCheckpoint(&checkpoint{Now: sim.Hour, CursorClosed: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add(small[:len(small)-3])
	f.Add(small[:checkpointHeaderLen])
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	flipped := append([]byte(nil), small...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := parseCheckpoint(data)
		if err == nil && ck == nil {
			t.Fatal("nil checkpoint without an error")
		}
	})
}
