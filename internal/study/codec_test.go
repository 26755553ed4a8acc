package study

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestCheckpointBinaryRoundTrip: a checkpoint read back from its binary
// record is deep-equal to the original, and re-encoding it reproduces
// the record byte for byte — floats travel as raw IEEE-754 bits.
func TestCheckpointBinaryRoundTrip(t *testing.T) {
	_, cp := completeCheckpoint(t)
	cp.Records[0].Group = "group-a"
	cp.Records[2].Metrics.StorageEnergyDeltaJ = math.Copysign(0, -1)
	raw := encodeBinary(cp)
	got, err := ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("binary round trip changed the checkpoint:\n%+v\nvs\n%+v", got, cp)
	}
	if again := encodeBinary(got); !bytes.Equal(again, raw) {
		t.Fatal("re-encoding a decoded checkpoint changed its bytes")
	}
	if !math.Signbit(got.Records[2].Metrics.StorageEnergyDeltaJ) {
		t.Fatal("negative zero lost its sign")
	}
}

// wantRefusal asserts err is non-nil and mentions every fragment.
func wantRefusal(t *testing.T, label string, err error, fragments ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: accepted, want a refusal mentioning %q", label, fragments)
	}
	for _, f := range fragments {
		if !strings.Contains(err.Error(), f) {
			t.Fatalf("%s: error %q does not mention %q", label, err, f)
		}
	}
}

// TestCheckpointRejectsTruncation: a record cut at any byte offset — a
// file cut off mid-write, a torn upload — is refused with a diagnostic
// naming the format version.
func TestCheckpointRejectsTruncation(t *testing.T) {
	_, cp := completeCheckpoint(t)
	raw := encodeBinary(cp)
	for cut := 0; cut < len(raw); cut++ {
		_, err := ReadCheckpoint(bytes.NewReader(raw[:cut]))
		wantRefusal(t, fmt.Sprintf("cut at %d of %d", cut, len(raw)), err,
			"reading checkpoint", fmt.Sprintf("format version %d", recordVersion), "truncated")
	}
}

// TestCheckpointRejectsTrailingBytes: bytes after the last task are
// refused, not ignored.
func TestCheckpointRejectsTrailingBytes(t *testing.T) {
	_, cp := completeCheckpoint(t)
	raw := encodeBinary(cp)
	for _, extra := range [][]byte{{0}, []byte("trailing"), raw} {
		_, err := ReadCheckpoint(bytes.NewReader(append(append([]byte(nil), raw...), extra...)))
		wantRefusal(t, fmt.Sprintf("%d trailing bytes", len(extra)), err,
			fmt.Sprintf("%d trailing bytes", len(extra)), fmt.Sprintf("format version %d", recordVersion))
	}
}

// TestCheckpointRejectsNonFinite: NaN and ±Inf in any metric or
// histogram field are refused, naming the task. (JSON could never carry
// them, so the old encoder failed instead; the binary encoder writes
// them faithfully and the decoder is the boundary.)
func TestCheckpointRejectsNonFinite(t *testing.T) {
	_, base := completeCheckpoint(t)
	fields := []struct {
		name string
		set  func(rec *TaskRecord, v float64)
	}{
		{"stability", func(r *TaskRecord, v float64) { r.Metrics.Stability = v }},
		{"instructions", func(r *TaskRecord, v float64) { r.Metrics.Instructions = v }},
		{"lifetime", func(r *TaskRecord, v float64) { r.Metrics.LifetimeSeconds = v }},
		{"final VC", func(r *TaskRecord, v float64) { r.Metrics.FinalVC = v }},
		{"min VC", func(r *TaskRecord, v float64) { r.Metrics.MinVC = v }},
		{"storage energy delta", func(r *TaskRecord, v float64) { r.Metrics.StorageEnergyDeltaJ = v }},
		{"histogram bin 3", func(r *TaskRecord, v float64) { r.HistBins[3] = v }},
		{"histogram underflow", func(r *TaskRecord, v float64) { r.HistUnder = v }},
		{"histogram overflow", func(r *TaskRecord, v float64) { r.HistOver = v }},
		{"histogram total", func(r *TaskRecord, v float64) { r.HistTotal = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cp := base.clone()
			f.set(&cp.Records[1], v)
			_, err := roundTrip(cp)
			wantRefusal(t, fmt.Sprintf("%s = %g", f.name, v), err,
				fmt.Sprintf("task %d %s", cp.Records[1].Index, f.name), "finite")
		}
	}
}

// TestCheckpointRejectsSurvivedByte: the Survived flag is one byte, 0
// or 1; anything else is refused, naming the task.
func TestCheckpointRejectsSurvivedByte(t *testing.T) {
	_, cp := completeCheckpoint(t)
	raw := encodeBinary(cp)
	fpLen := int(binary.LittleEndian.Uint32(raw[len(recordMagic)+2:]))
	// header | fingerprint | total | count, then task 0's index, seed
	// and (empty) group precede its survived byte.
	off := recordHeaderBytes + fpLen + 8 + 4 + 8 + 8 + 4
	if raw[off] > 1 {
		t.Fatalf("offset %d holds %d, not a survived byte — layout changed", off, raw[off])
	}
	for _, b := range []byte{2, 0x80, 0xff} {
		bad := append([]byte(nil), raw...)
		bad[off] = b
		_, err := ReadCheckpoint(bytes.NewReader(bad))
		wantRefusal(t, fmt.Sprintf("survived byte %d", b), err,
			fmt.Sprintf("task %d survived byte %d", cp.Records[0].Index, b))
	}
}

// TestCheckpointRejectsOtherFormats: a JSON checkpoint (the format
// before binary records), another record version and a foreign file
// are each refused with a diagnostic naming the format.
func TestCheckpointRejectsOtherFormats(t *testing.T) {
	_, cp := completeCheckpoint(t)
	var js bytes.Buffer
	if err := cp.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCheckpoint(&js)
	wantRefusal(t, "JSON checkpoint", err, "JSON checkpoint (format version 1)",
		fmt.Sprintf("binary record format version %d", recordVersion))

	raw := encodeBinary(cp)
	for _, v := range []uint16{1, 3} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint16(bad[len(recordMagic):], v)
		_, err := ReadCheckpoint(bytes.NewReader(bad))
		wantRefusal(t, fmt.Sprintf("version %d", v), err,
			fmt.Sprintf("format version %d, this build reads version %d", v, recordVersion))
	}

	_, err = ReadCheckpoint(strings.NewReader("not a checkpoint at all"))
	wantRefusal(t, "foreign bytes", err, "bad magic")
}

// TestCheckpointRejectsUnsortedRecords: records must arrive in ledger
// order; the decoder refuses a permutation rather than re-sorting it.
func TestCheckpointRejectsUnsortedRecords(t *testing.T) {
	_, cp := completeCheckpoint(t)
	cp.Records[1], cp.Records[2] = cp.Records[2], cp.Records[1]
	_, err := roundTrip(cp)
	wantRefusal(t, "swapped records", err, fmt.Sprintf("unsorted at task %d", cp.Records[2].Index))
}

// TestCheckpointRejectsForeignFingerprint: the fingerprint must be the
// canonical JSON of a fingerprint this build knows — an unknown field
// (an identity this build cannot check) is refused, not dropped.
func TestCheckpointRejectsForeignFingerprint(t *testing.T) {
	_, cp := completeCheckpoint(t)
	fp, err := json.Marshal(cp.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	for label, bad := range map[string][]byte{
		"unknown field": append([]byte(`{"model_digest":"x",`), fp[1:]...),
		"indented":      append([]byte("{ "), fp[1:]...),
		"not JSON":      []byte("fingerprint"),
	} {
		_, err := ReadCheckpoint(bytes.NewReader(encodeRecord(bad, cp.Total, cp.Records)))
		wantRefusal(t, label, err, "fingerprint")
	}
}

// TestCellRecordRoundTrip: a cell encoded from one study restores into
// the matching cell of a study that shares it, and cell records and
// checkpoints are not interchangeable.
func TestCellRecordRoundTrip(t *testing.T) {
	st := cellCacheStudy(t, 2, []Level{idealLevel(), ideal2Level()})
	full, err := st.RunShard(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := st.EncodeCell(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st.RestoreCell(1, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp.Records, full.Records[2:4]) {
		t.Fatalf("restored cell records differ:\n%+v\nvs\n%+v", cp.Records, full.Records[2:4])
	}
	_, err = st.RestoreCell(2, raw)
	wantRefusal(t, "cell restored into the wrong cell", err, "mis-keyed cache entry")
	_, err = ReadCheckpoint(bytes.NewReader(raw))
	wantRefusal(t, "cell record read as a checkpoint", err, "no study fingerprint")
	_, err = st.RestoreCell(1, encodeBinary(cp))
	wantRefusal(t, "checkpoint restored as a cell", err, "not a cell record")
	_, err = st.RestoreCell(1, raw[:len(raw)-1])
	wantRefusal(t, "truncated cell", err, "reading cell record", "truncated")
}

// BenchmarkCheckpointCodec times one binary record round trip —
// WriteBinary then ReadCheckpoint, validation included — of a real
// coordinator chunk: 4 runs of a two-axis matrix with 64-bin dwell
// histograms, the shape pncoord leases by default in its benchmark
// fleet. B/chunk is the record's size on the wire and in the journal.
func BenchmarkCheckpointCodec(b *testing.B) {
	base := testStudy(1)
	base.Base.Duration = 2
	base.Reps = 4
	base.VCHistBins = 64
	cp, err := base.RunChunk(context.Background(), TaskRange{Lo: 0, Hi: 4})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := cp.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "B/chunk")
}
