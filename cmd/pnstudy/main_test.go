package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pnps/internal/study"
	"pnps/internal/studycli"
)

func TestParseShard(t *testing.T) {
	i, n, err := parseShard("2/5")
	if err != nil || i != 2 || n != 5 {
		t.Fatalf("parseShard(2/5) = %d, %d, %v", i, n, err)
	}
	for _, bad := range []string{"", "3", "5/2", "2/2", "-1/2", "a/b", "1/2/3"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) accepted", bad)
		}
	}
}

// e2eMatrix is a small study matrix as pnstudy flags: 2 storage × 2
// utilisation cells × 3 reps of a short cloud-stressed scenario, with
// the dwell histogram on.
var e2eMatrix = []string{
	"-scenario", "stress-clouds", "-duration", "6",
	"-storage", "ideal:0.047,supercap:0.047", "-util", "1,0.5",
	"-reps", "3", "-seed", "31", "-bins", "16", "-histlo", "4", "-histhi", "6",
	"-workers", "2",
}

// pnstudy runs one invocation of the command with the matrix flags.
func pnstudy(t *testing.T, args ...string) error {
	t.Helper()
	return run(context.Background(), append(append([]string(nil), e2eMatrix...), args...), io.Discard)
}

// referenceJSON is the outcome JSON of the same matrix run in-process.
func referenceJSON(t *testing.T) []byte {
	t.Helper()
	st, err := studycli.Config{
		Scenario: "stress-clouds", Duration: 6,
		Storage: "ideal:0.047,supercap:0.047", Util: "1,0.5",
		Reps: 3, Seed: 31, Bins: 16, HistLo: 4, HistHi: 6,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCheckpointFilesEndToEnd drives pnstudy's checkpoint file path:
// two shards written to files and merged, and a partial shard resumed
// in place, must each give outcome JSON byte-equal to Study.Run; a
// checkpoint file in the older JSON format is refused with a diagnostic
// naming the format version.
func TestCheckpointFilesEndToEnd(t *testing.T) {
	want := referenceJSON(t)
	dir := t.TempDir()
	s0, s1 := filepath.Join(dir, "s0.ckpt"), filepath.Join(dir, "s1.ckpt")
	if err := pnstudy(t, "-shard", "0/2", "-checkpoint", s0); err != nil {
		t.Fatal(err)
	}
	if err := pnstudy(t, "-shard", "1/2", "-checkpoint", s1); err != nil {
		t.Fatal(err)
	}

	merged := filepath.Join(dir, "merged.json")
	if err := pnstudy(t, "-merge", s0+","+s1, "-json", merged); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, merged); !bytes.Equal(got, want) {
		t.Fatalf("-merge outcome differs from Study.Run:\n%s\nvs\n%s", got, want)
	}

	// A lone shard cannot merge into an outcome.
	if err := pnstudy(t, "-merge", s0); err == nil || !strings.Contains(err.Error(), "missing ranges") {
		t.Fatalf("-merge of one shard of two: %v, want a missing-ranges refusal", err)
	}

	// Resume a partial shard in place: the file ends up complete.
	partial := filepath.Join(dir, "partial.ckpt")
	if err := os.WriteFile(partial, readFile(t, s1), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(dir, "resumed.json")
	if err := pnstudy(t, "-resume", partial, "-json", resumed); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, resumed); !bytes.Equal(got, want) {
		t.Fatalf("-resume outcome differs from Study.Run:\n%s\nvs\n%s", got, want)
	}
	cp, err := study.ReadCheckpoint(bytes.NewReader(readFile(t, partial)))
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Complete() {
		t.Fatalf("resumed checkpoint file still misses %v", cp.Missing())
	}

	// The JSON rendering of a shard is the checkpoint format before
	// binary records: -resume and -merge refuse it, naming the version.
	shard, err := study.ReadCheckpoint(bytes.NewReader(readFile(t, s0)))
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "s0.json")
	if err := studycli.WriteFileAtomic(legacy, shard.WriteJSON); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-resume", legacy}, {"-merge", legacy + "," + s1}} {
		err := pnstudy(t, args...)
		if err == nil || !strings.Contains(err.Error(), "JSON checkpoint (format version 1)") {
			t.Fatalf("%v on a JSON checkpoint: %v, want the versioned refusal", args, err)
		}
	}
	if got := readFile(t, legacy); !bytes.HasPrefix(got, []byte("{")) {
		t.Fatal("the refused -resume rewrote the JSON checkpoint")
	}
}
