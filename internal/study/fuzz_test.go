package study

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"pnps/internal/scenario"
)

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint decoder,
// which reads shard, resume and merge files from disk and coordinator
// submissions off the wire. Nothing may panic, every checkpoint it
// accepts must pass Validate, and an accepted record has exactly one
// byte form: re-encoding it reproduces the input.
func FuzzReadCheckpoint(f *testing.F) {
	_, base := completeCheckpoint(f)
	full := encodeBinary(base)
	f.Add(full)
	for _, tc := range checkpointCorruptions {
		cp := base.clone()
		tc.mutate(cp)
		f.Add(encodeBinary(cp))
	}
	nan := base.clone()
	nan.Records[1].HistBins[0] = math.NaN()
	f.Add(encodeBinary(nan))
	for _, frac := range []int{2, 4} {
		f.Add(full[:len(full)/frac])
	}
	f.Add(append(append([]byte(nil), full...), 0))
	v1 := append([]byte(nil), full...)
	binary.LittleEndian.PutUint16(v1[len(recordMagic):], 1)
	f.Add(v1)
	var js bytes.Buffer
	if err := base.WriteJSON(&js); err != nil {
		f.Fatal(err)
	}
	f.Add(js.Bytes())

	f.Fuzz(func(t *testing.T, raw []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("ReadCheckpoint accepted an invalid checkpoint: %v", err)
		}
		if again := encodeBinary(cp); !bytes.Equal(again, raw) {
			t.Fatalf("accepted record re-encodes differently:\n%x\nvs\n%x", again, raw)
		}
	})
}

// FuzzCellRecords feeds arbitrary bytes to serve's cached-cell restore
// (StudyRuns.RestoreCell: decode, seed verification against the ledger and
// validation). Nothing may panic; an accepted cell must be a valid
// checkpoint covering exactly the requested cell, carrying the
// restoring study's own ledger seeds, and must re-encode to the input.
func FuzzCellRecords(f *testing.F) {
	st := cellCacheStudy(f, 2, []Level{idealLevel(), ideal2Level()})
	full, err := st.RunShard(context.Background(), 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	cells := bindStore(f, NewRunStore(), st, "")
	_, recs := cellRecords(f, st, 1)
	cell := func(mutate func(recs []TaskRecord)) []byte {
		recs := append([]TaskRecord(nil), recs...)
		mutate(recs)
		return cellRecord(recs)
	}
	good := cell(func([]TaskRecord) {})
	f.Add(good, uint8(1))
	f.Add(good, uint8(2)) // mis-keyed: seeds disagree with cell 2's ledger
	f.Add(good, uint8(9)) // no such cell
	f.Add(cell(func(r []TaskRecord) { r[0].Seed++ }), uint8(1))
	f.Add(cell(func(r []TaskRecord) { r[1].Index = 0 }), uint8(1))
	f.Add(cell(func(r []TaskRecord) { r[1].HistTotal = r[1].HistTotal*2 + 1 }), uint8(1))
	f.Add(cell(func(r []TaskRecord) { r[0].Metrics.MinVC = math.Inf(-1) }), uint8(1))
	f.Add(cellRecord(recs[:1]), uint8(1))                    // short cell
	f.Add(encodeRecord(nil, 3, recs, 0), uint8(1))           // ledger/record count skew
	f.Add(good[:len(good)/2], uint8(1))                      // torn entry
	f.Add(append(append([]byte(nil), good...), 7), uint8(1)) // trailing bytes
	f.Add(encodeBinary(full), uint8(1))                      // a checkpoint, not a cell
	if js, err := json.Marshal(recs); err == nil {
		f.Add(js, uint8(1)) // the JSON cell encoding that preceded binary records
	}

	want := map[int]int64{}
	for _, rec := range full.Records {
		want[rec.Index] = rec.Seed
	}
	f.Fuzz(func(t *testing.T, raw []byte, i uint8) {
		cp, err := cells.RestoreCell(int(i), raw)
		if err != nil {
			return
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("RestoreCell accepted an invalid checkpoint: %v", err)
		}
		if r := (TaskRange{Lo: 2 * int(i), Hi: 2*int(i) + 2}); !cp.covers(r) {
			t.Fatalf("cell %d restore covers %s, want %v", i, cp.coverage(), r)
		}
		for _, rec := range cp.Records {
			if rec.Seed != want[rec.Index] {
				t.Fatalf("task %d restored with seed %d, ledger seed %d", rec.Index, rec.Seed, want[rec.Index])
			}
		}
		again, err := cells.EncodeCell(cp, int(i))
		if err != nil {
			t.Fatalf("accepted cell does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted cell re-encodes differently:\n%x\nvs\n%x", again, raw)
		}
	})
}

// splitDurations are FuzzSplitEquivalence's run lengths. At 0.05–0.2 s
// nearly every stress-clouds realisation is cloud-free, so a cell's
// tasks share one run; at 2 s one in 15 holds a cloud and runs alone.
var splitDurations = [...]float64{0.05, 0.1, 0.15, 0.2, 2}

// splitStudy builds FuzzSplitEquivalence's recipe: a hook-free
// stress-clouds study of 1–3 load cells × 1–4 repetitions of
// splitDurations runs under any seed mode, optionally with a dwell
// histogram.
func splitStudy(cells, reps, dur, mode uint8, hist bool, seed int64) Study {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = splitDurations[int(dur)%len(splitDurations)]
	st := Study{
		Name: "split", Base: base, Reps: 1 + int(reps%4),
		Seed: seed, SeedMode: SeedMode(mode % 3),
	}
	if n := 1 + int(cells%3); n > 1 {
		loads := []Level{Utilisation(1), Utilisation(0.6), Utilisation(0.3)}
		st.Axes = []Axis{NewAxis("load", loads[:n]...)}
	}
	if hist {
		st.VCHistBins, st.VCHistLo, st.VCHistHi = 8, 4, 6
	}
	return st
}

// permutation shuffles 0..n-1 with the fuzzed bytes as its randomness.
func permutation(n int, seed []byte) []int {
	order := forward(n)
	for i := n - 1; i > 0 && len(seed) > 0; i-- {
		j := int(seed[i%len(seed)]) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// FuzzSplitEquivalence is the determinism contract as a property: a
// study cut into chunks folded in any order, into shards merged back
// (more shards than tasks included), into cells restored from their
// cache records, or resumed from one shard, yields outcome JSON
// byte-equal to an unsharded Study.Run — and so does every mix of
// pieces that round-trip through WriteBinary/ReadCheckpoint (bit k of
// trips selects piece k) and pieces that stay in memory.
func FuzzSplitEquivalence(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), true, int64(7), uint8(2), uint8(2), []byte{1, 2}, uint8(1), uint8(0), uint16(0x5555))
	f.Add(uint8(2), uint8(3), uint8(3), uint8(1), false, int64(11), uint8(4), uint8(4), []byte{9, 0, 4}, uint8(5), uint8(2), uint16(0xffff))
	f.Add(uint8(0), uint8(2), uint8(1), uint8(2), true, int64(-3), uint8(0), uint8(7), []byte{}, uint8(1), uint8(5), uint16(0))
	f.Add(uint8(2), uint8(0), uint8(2), uint8(0), true, int64(2017), uint8(1), uint8(1), []byte{200}, uint8(6), uint8(0), uint16(0x00f0))
	// 2 s runs, 3 cells × 4 reps, where chunk and shard edges cut
	// through share groups: at seed 2 cell 2's tasks run as {8, 10},
	// {9} and {11}; at seed 4 cell 1's as {4, 6, 7} and {5}; at seed 17
	// under SeedPerRep every cell's as {0, 1, 2} and {3}.
	f.Add(uint8(2), uint8(3), uint8(4), uint8(0), true, int64(2), uint8(2), uint8(4), []byte{3, 1}, uint8(5), uint8(1), uint16(0x0f0f))
	f.Add(uint8(2), uint8(3), uint8(4), uint8(0), false, int64(4), uint8(1), uint8(6), []byte{7}, uint8(2), uint8(3), uint16(0x3333))
	f.Add(uint8(2), uint8(3), uint8(4), uint8(1), true, int64(17), uint8(4), uint8(1), []byte{}, uint8(7), uint8(0), uint16(0xaaaa))

	f.Fuzz(func(t *testing.T, cells, reps, dur, mode uint8, hist bool, seed int64,
		chunk, shards uint8, perm []byte, restore, resume uint8, trips uint16) {
		st := splitStudy(cells, reps, dur, mode, hist, seed)
		ctx := context.Background()
		want := outcomeBytes(t, "Run")(st.Run(ctx))
		ncells := 1 + int(cells%3)
		total := ncells * st.Reps

		piece := 0
		trip := func(cp *Checkpoint, err error) *Checkpoint {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			piece++
			if trips>>(piece%16)&1 == 0 {
				return cp
			}
			back, err := ReadCheckpoint(bytes.NewReader(encodeBinary(cp)))
			if err != nil {
				t.Fatalf("piece %d round trip: %v", piece, err)
			}
			return back
		}
		same := func(label string) func(*StudyOutcome, error) {
			return func(out *StudyOutcome, err error) {
				t.Helper()
				if got := outcomeBytes(t, label)(out, err); !bytes.Equal(got, want) {
					t.Fatalf("%s outcome differs from Study.Run:\n%s\nvs\n%s", label, got, want)
				}
			}
		}

		// Chunks of any size, folded in a permuted order.
		size := 1 + int(chunk)%(total+1)
		folder, err := st.NewFolder(size)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range permutation(folder.NumChunks(), perm) {
			if err := folder.Fold(i, trip(st.RunChunk(ctx, folder.Range(i)))); err != nil {
				t.Fatalf("chunk %d of size %d: %v", i, size, err)
			}
		}
		same("chunk fold")(folder.Outcome())

		// Shards, up to two more than there are tasks, merged in a
		// permuted order.
		n := 1 + int(shards)%(total+2)
		cps := make([]*Checkpoint, n)
		for i, k := range permutation(n, perm) {
			cps[i] = trip(st.RunShard(ctx, k, n))
		}
		merged, err := MergeCheckpoints(cps...)
		if err != nil {
			t.Fatalf("merge of %d shards: %v", n, err)
		}
		same("shard merge")(st.Outcome(merged))

		// Cells: bit c of restore takes cell c from its cache record.
		bound := bindStore(t, NewRunStore(), st, "")
		cellFolder, err := st.NewFolder(st.Reps)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < ncells; c++ {
			cp := trip(st.RunChunk(ctx, cellFolder.Range(c)))
			if restore>>c&1 == 1 {
				raw, err := bound.EncodeCell(cp, c)
				if err != nil {
					t.Fatalf("cell %d encode: %v", c, err)
				}
				if cp, err = bound.RestoreCell(c, raw); err != nil {
					t.Fatalf("cell %d restore: %v", c, err)
				}
			}
			if err := cellFolder.Fold(c, cp); err != nil {
				t.Fatalf("cell %d fold: %v", c, err)
			}
		}
		same("cell restore")(cellFolder.Outcome())

		// Resume from one shard.
		part := trip(st.RunShard(ctx, int(resume)%n, n))
		full := trip(st.Resume(ctx, part))
		same("resume")(st.Outcome(full))
	})
}

// outcomeBytes returns a function rendering an outcome as its JSON
// export, failing the test on an error from the call that produced it.
func outcomeBytes(t *testing.T, label string) func(*StudyOutcome, error) []byte {
	return func(out *StudyOutcome, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var buf bytes.Buffer
		if err := out.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return buf.Bytes()
	}
}
