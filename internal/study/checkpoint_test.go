package study

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// completeCheckpoint runs the contract study to completion and returns
// its checkpoint — the valid baseline the corruption tests mutate.
func completeCheckpoint(t testing.TB) (Study, *Checkpoint) {
	t.Helper()
	st := testStudy(0)
	cp, err := st.RunShard(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Complete() {
		t.Fatal("full shard not complete")
	}
	return st, cp
}

// roundTrip serialises a (possibly corrupted) checkpoint and reads it
// back through the validating deserialisation path.
func roundTrip(cp *Checkpoint) (*Checkpoint, error) {
	return ReadCheckpoint(bytes.NewReader(encodeBinary(cp)))
}

// encodeBinary writes a checkpoint's binary record.
func encodeBinary(cp *Checkpoint) []byte {
	var buf bytes.Buffer
	if err := cp.WriteBinary(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// checkpointCorruptions are the hostile-checkpoint vectors: each
// mutates a valid checkpoint into one every consumer must refuse with a
// diagnostic mentioning wantErr.
var checkpointCorruptions = []struct {
	name    string
	mutate  func(cp *Checkpoint)
	wantErr string
}{
	{"duplicate index", func(cp *Checkpoint) {
		cp.Records[1].Index = cp.Records[0].Index
	}, "duplicate"},
	{"negative index", func(cp *Checkpoint) {
		cp.Records[0].Index = -1
	}, "outside ledger"},
	{"index past ledger", func(cp *Checkpoint) {
		cp.Records[len(cp.Records)-1].Index = cp.Total
	}, "outside ledger"},
	{"hist total inconsistent", func(cp *Checkpoint) {
		cp.Records[0].HistTotal = cp.Records[0].HistTotal*2 + 1
	}, "inconsistent with bin sum"},
	{"negative bin weight", func(cp *Checkpoint) {
		cp.Records[0].HistBins[0] = -1
	}, "invalid weight"},
	{"counters without bins", func(cp *Checkpoint) {
		cp.Records[0].HistBins = nil
	}, "counters without bins"},
	{"wrong bin count", func(cp *Checkpoint) {
		cp.Records[0].HistBins = append(cp.Records[0].HistBins, 0)
	}, "study pins"},
	{"too many records", func(cp *Checkpoint) {
		cp.Total = len(cp.Records) - 1
	}, ""}, // any diagnostic error: index-out-of-range or record count
}

// TestCheckpointRejectsCorruptRecords: the hostile-checkpoint vectors —
// duplicate index, negative index, index ≥ Total, histogram counters
// inconsistent with bins — are rejected with diagnostic errors at every
// consumer boundary (ReadCheckpoint, Merge, Resume, Outcome), never
// silently aggregated.
func TestCheckpointRejectsCorruptRecords(t *testing.T) {
	st, base := completeCheckpoint(t)
	for _, tc := range checkpointCorruptions {
		cp := base.clone()
		tc.mutate(cp)

		if _, err := roundTrip(cp); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: ReadCheckpoint error = %v, want %q", tc.name, err, tc.wantErr)
		}
		if _, err := st.Outcome(cp); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Outcome error = %v, want %q", tc.name, err, tc.wantErr)
		}
		if _, err := st.Resume(context.Background(), cp); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Resume error = %v, want %q", tc.name, err, tc.wantErr)
		}
		if err := base.clone().Merge(cp); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Merge error = %v, want %q", tc.name, err, tc.wantErr)
		}
		if _, err := MergeCheckpoints(cp); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: MergeCheckpoints error = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCheckpointCompleteIsStructural: Complete() must not be fooled by
// a record count that matches Total while duplicate indices leave ledger
// gaps — the exact corruption that used to pass as complete and feed
// Outcome wrong data.
func TestCheckpointCompleteIsStructural(t *testing.T) {
	_, cp := completeCheckpoint(t)
	cp.Records[1].Index = cp.Records[0].Index // duplicate; len(Records) == Total still
	cp.rebuildRanges()
	if len(cp.Records) != cp.Total {
		t.Fatal("corruption changed the record count; test is void")
	}
	if cp.Complete() {
		t.Fatal("checkpoint with duplicate indices passed Complete()")
	}
	if err := cp.Validate(); err == nil {
		t.Fatal("checkpoint with duplicate indices passed Validate()")
	}
}

// TestMergeDoesNotAliasSources: MergeCheckpoints documents that none of
// its inputs are mutated — which also requires the merged checkpoint to
// share no backing arrays with them. Mutating the merge result must not
// reach into the source shards.
func TestMergeDoesNotAliasSources(t *testing.T) {
	st := testStudy(0)
	a, err := st.RunShard(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.RunShard(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantA := a.Records[0].HistBins[0]
	wantB := b.Records[0].HistBins[0]

	merged, err := MergeCheckpoints(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range merged.Records {
		for j := range merged.Records[i].HistBins {
			merged.Records[i].HistBins[j] = -12345
		}
	}
	if a.Records[0].HistBins[0] != wantA {
		t.Error("mutating the merge result corrupted shard a's histogram bins")
	}
	if b.Records[0].HistBins[0] != wantB {
		t.Error("mutating the merge result corrupted shard b's histogram bins")
	}

	// In-place Merge must deep-copy too: cp.Merge(other) then mutating
	// cp must leave other untouched.
	cp := a.clone()
	if err := cp.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := range cp.Records {
		for j := range cp.Records[i].HistBins {
			cp.Records[i].HistBins[j] = -54321
		}
	}
	if b.Records[0].HistBins[0] != wantB {
		t.Error("mutating the in-place merge target corrupted the source shard")
	}
}
