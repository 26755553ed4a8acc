package study

import (
	"context"
	"strings"
	"testing"
)

// TestChunkGeometry: the ledger cuts into fixed-size contiguous blocks
// with a short tail.
func TestChunkGeometry(t *testing.T) {
	st := testStudy(0) // 8 tasks
	chunks, err := st.Chunks(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []TaskRange{{0, 3}, {3, 6}, {6, 8}}
	if len(chunks) != len(want) {
		t.Fatalf("chunks = %v, want %v", chunks, want)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Fatalf("chunk %d = %v, want %v", i, chunks[i], want[i])
		}
	}
	if _, err := st.Chunks(0); err == nil {
		t.Error("zero chunk size accepted")
	}
	if _, err := st.RunChunk(context.Background(), TaskRange{Lo: 6, Hi: 9}); err == nil {
		t.Error("out-of-ledger chunk range accepted")
	}
	if _, err := st.RunChunk(context.Background(), TaskRange{Lo: 3, Hi: 3}); err == nil {
		t.Error("empty chunk range accepted")
	}
}

// TestFolderBitIdentical: executing every chunk independently and
// folding the checkpoints — in order and fully out of order — rebuilds
// the unsharded outcome bit for bit, the pre-merge contract the
// coordinator relies on.
func TestFolderBitIdentical(t *testing.T) {
	ref, err := testStudy(0).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 3, 8, 20} {
		st := testStudy(0)
		chunks, err := st.Chunks(size)
		if err != nil {
			t.Fatal(err)
		}
		cps := make([]*Checkpoint, len(chunks))
		for i, r := range chunks {
			if cps[i], err = st.RunChunk(context.Background(), r); err != nil {
				t.Fatalf("chunk %d %v: %v", i, r, err)
			}
		}

		for _, order := range [][]int{forward(len(chunks)), reverse(len(chunks))} {
			f, err := st.NewFolder(size)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range order {
				if err := f.Fold(i, cps[i]); err != nil {
					t.Fatalf("size %d fold chunk %d: %v", size, i, err)
				}
			}
			if !f.Complete() {
				t.Fatalf("size %d: folder incomplete after all chunks, missing %v", size, f.Missing())
			}
			got, err := f.Outcome()
			if err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, "chunk fold", ref, got)
		}
	}
}

func forward(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func reverse(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

// TestFolderBuffersOutOfOrder: a chunk landing beyond the in-order
// frontier is buffered, not folded; the frontier chunk releases it.
func TestFolderBuffersOutOfOrder(t *testing.T) {
	st := testStudy(0)
	chunks, err := st.Chunks(3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.NewFolder(3)
	if err != nil {
		t.Fatal(err)
	}
	last, err := st.RunChunk(context.Background(), chunks[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fold(2, last); err != nil {
		t.Fatal(err)
	}
	if f.FoldedTasks() != 0 {
		t.Fatalf("out-of-order chunk folded eagerly: %d tasks", f.FoldedTasks())
	}
	if got := f.Missing(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Missing() = %v, want [0 1]", got)
	}
	for i := 0; i < 2; i++ {
		cp, err := st.RunChunk(context.Background(), chunks[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Fold(i, cp); err != nil {
			t.Fatal(err)
		}
	}
	if f.FoldedTasks() != f.TotalTasks() || !f.Complete() {
		t.Fatalf("frontier did not drain: %d/%d folded", f.FoldedTasks(), f.TotalTasks())
	}
	if len(f.Marginals()) == 0 {
		t.Error("no live marginals after folding")
	}
}

// TestFolderLiveMarginals: marginal snapshots are available mid-fold
// and only cover the folded prefix.
func TestFolderLiveMarginals(t *testing.T) {
	st := testStudy(0)
	f, err := st.NewFolder(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Marginals()) != 0 {
		t.Fatal("marginals before any fold")
	}
	cp, err := st.RunChunk(context.Background(), f.Range(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fold(0, cp); err != nil {
		t.Fatal(err)
	}
	ms := f.Marginals()
	if len(ms) == 0 {
		t.Fatal("no marginals after first chunk")
	}
	total := 0
	for _, m := range ms {
		total += m.Summary.Runs
	}
	// 4 folded tasks × 2 axes = 8 marginal run-contributions.
	if total != 8 {
		t.Fatalf("marginal run-contributions = %d, want 8", total)
	}
	if _, err := f.Outcome(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("incomplete outcome error = %v", err)
	}
}

// TestFolderRejections: the folder refuses foreign fingerprints,
// wrong-coverage checkpoints, duplicate folds and out-of-range chunk
// indices — all before touching the accumulators.
func TestFolderRejections(t *testing.T) {
	st := testStudy(0)
	f, err := st.NewFolder(3)
	if err != nil {
		t.Fatal(err)
	}

	// A shard cut to another geometry ([0,2) of 8 tasks in 3 shards)
	// does not cover chunk 0's range [0,3).
	shard, err := st.RunShard(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fold(0, shard); err == nil || !strings.Contains(err.Error(), "covers") {
		t.Fatalf("shard of another geometry accepted as chunk: %v", err)
	}

	// A chunk of a different study (other seed) must be refused.
	other := st
	other.Seed++
	foreign, err := other.RunChunk(context.Background(), f.Range(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fold(0, foreign); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("foreign chunk accepted: %v", err)
	}

	// Corrupt records are rejected by validation.
	cp, err := st.RunChunk(context.Background(), f.Range(0))
	if err != nil {
		t.Fatal(err)
	}
	bad := cp.clone()
	bad.Records[1].Index = bad.Records[0].Index
	if err := f.Fold(0, bad); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("corrupt chunk accepted: %v", err)
	}

	if err := f.Fold(-1, cp); err == nil {
		t.Error("negative chunk index accepted")
	}
	if err := f.Fold(f.NumChunks(), cp); err == nil {
		t.Error("past-end chunk index accepted")
	}

	// The genuine chunk folds; folding it again is an error.
	if err := f.Fold(0, cp); err != nil {
		t.Fatal(err)
	}
	if err := f.Fold(0, cp); err == nil || !strings.Contains(err.Error(), "already folded") {
		t.Fatalf("duplicate fold accepted: %v", err)
	}
	if f.FoldedTasks() != 3 {
		t.Fatalf("folded %d tasks, want 3", f.FoldedTasks())
	}
}
