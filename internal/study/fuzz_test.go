package study

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
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
// (Study.RestoreCell: decode, then CellCheckpoint's seed verification
// and full validation). Nothing may panic; an accepted cell must be a
// valid checkpoint covering exactly the requested cell, carrying the
// restoring study's own ledger seeds, and must re-encode to the input.
func FuzzCellRecords(f *testing.F) {
	st := cellCacheStudy(f, 2, []Level{idealLevel(), ideal2Level()})
	full, err := st.RunShard(context.Background(), 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	recs, err := st.ExtractCellRecords(full, 1)
	if err != nil {
		f.Fatal(err)
	}
	cell := func(mutate func(recs []TaskRecord)) []byte {
		recs := append([]TaskRecord(nil), recs...)
		mutate(recs)
		return encodeRecord(nil, len(recs), recs)
	}
	good := cell(func([]TaskRecord) {})
	f.Add(good, uint8(1))
	f.Add(good, uint8(2)) // mis-keyed: seeds disagree with cell 2's ledger
	f.Add(good, uint8(9)) // no such cell
	f.Add(cell(func(r []TaskRecord) { r[0].Seed++ }), uint8(1))
	f.Add(cell(func(r []TaskRecord) { r[1].Index = 0 }), uint8(1))
	f.Add(cell(func(r []TaskRecord) { r[1].HistTotal = r[1].HistTotal*2 + 1 }), uint8(1))
	f.Add(cell(func(r []TaskRecord) { r[0].Metrics.MinVC = math.Inf(-1) }), uint8(1))
	f.Add(encodeRecord(nil, 1, recs[:1]), uint8(1))          // short cell
	f.Add(encodeRecord(nil, 3, recs), uint8(1))              // ledger/record count skew
	f.Add(good[:len(good)/2], uint8(1))                      // torn entry
	f.Add(append(append([]byte(nil), good...), 7), uint8(1)) // trailing bytes
	f.Add(encodeBinary(full), uint8(1))                      // a checkpoint, not a cell
	if js, err := json.Marshal(recs); err == nil {
		f.Add(js, uint8(1)) // the JSON cell encoding that preceded binary records
	}

	ranges := make([]TaskRange, 4)
	for i := range ranges {
		if ranges[i], err = st.CellRange(i); err != nil {
			f.Fatal(err)
		}
	}
	want := map[int]int64{}
	for _, rec := range full.Records {
		want[rec.Index] = rec.Seed
	}
	f.Fuzz(func(t *testing.T, raw []byte, i uint8) {
		cp, err := st.RestoreCell(int(i), raw)
		if err != nil {
			return
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("RestoreCell accepted an invalid checkpoint: %v", err)
		}
		if len(cp.Completed) != 1 || cp.Completed[0] != ranges[i] {
			t.Fatalf("cell %d restore covers %v, want %v", i, cp.Completed, ranges[i])
		}
		for _, rec := range cp.Records {
			if rec.Seed != want[rec.Index] {
				t.Fatalf("task %d restored with seed %d, ledger seed %d", rec.Index, rec.Seed, want[rec.Index])
			}
		}
		again, err := st.EncodeCell(cp, int(i))
		if err != nil {
			t.Fatalf("accepted cell does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted cell re-encodes differently:\n%x\nvs\n%x", again, raw)
		}
	})
}
