package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// referenceJSON maps workload -> seed -> the outcome digest of each input.
// The simulator is deterministic, so a timed unit that does not reproduce
// its digest has changed the simulated result.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Schema    string                         `json:"schema"`
	Workloads map[string]map[string][]string `json:"workloads"`
}

const referenceSchema = "perfbench.reference/1"

// committedSeeds are the seeds reference.json covers: 0-31 and the held-out
// seed.
func committedSeeds() []int64 {
	seeds := make([]int64, 0, 33)
	for s := int64(0); s < 32; s++ {
		seeds = append(seeds, s)
	}
	return append(seeds, heldOutSeed)
}

// digest is a short fingerprint of a unit's rendered outcome.
func digest(outcome string) string {
	sum := sha256.Sum256([]byte(outcome))
	return hex.EncodeToString(sum[:8])
}

// lookupReference returns the committed digests of the workload's inputs
// at seed, or nil when none are committed.
func lookupReference(workload string, seed int64) []string {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil || ref.Schema != referenceSchema {
		return nil
	}
	return ref.Workloads[workload][strconv.FormatInt(seed, 10)]
}

// checker compares each unit's outcome with the committed reference of its
// input or, for a seed without one, with the first outcome of that input.
type checker struct {
	ref  []string
	seen map[int]string
}

func newChecker(ref []string) *checker {
	return &checker{ref: ref, seen: make(map[int]string)}
}

func (c *checker) check(in int, got string) error {
	want, ok := c.seen[in]
	if c.ref != nil {
		if in >= len(c.ref) {
			return fmt.Errorf("no committed reference for input %d", in)
		}
		want, ok = c.ref[in], true
	}
	if ok && got != want {
		return fmt.Errorf("outcome %s of input %d differs from reference %s", got, in, want)
	}
	c.seen[in] = got
	return nil
}

// recordReference runs every input of every workload at each committed seed
// once and writes their outcome digests to path.
func recordReference(path string, log io.Writer) error {
	ref := referenceFile{Schema: referenceSchema, Workloads: make(map[string]map[string][]string)}
	tmp, err := os.MkdirTemp("", "perfbench-record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, name := range workloadNames() {
		ref.Workloads[name] = make(map[string][]string)
		for _, seed := range committedSeeds() {
			w, err := newWorkload(name)
			if err != nil {
				return err
			}
			if err := w.setup(seed, tmp); err != nil {
				return fmt.Errorf("%s seed %d: setup: %w", name, seed, err)
			}
			var digests []string
			for in := 0; in < w.inputs(); in++ {
				out, err := w.unit(in)
				if err != nil {
					return fmt.Errorf("%s seed %d input %d: %w", name, seed, in, err)
				}
				digests = append(digests, out.digest)
			}
			ref.Workloads[name][strconv.FormatInt(seed, 10)] = digests
			fmt.Fprintf(log, "recorded %s seed %d: %v\n", name, seed, digests)
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
