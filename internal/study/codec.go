package study

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary task records: the one encoding of completed tasks on every
// machine-to-machine path — coordinator submissions and journal,
// pnstudy checkpoint files and the serve cell cache. WriteJSON stays as
// the human-readable rendering; nothing reads it back.
//
// Layout (integers little-endian, floats as raw IEEE-754 bits, so every
// value round-trips bit for bit):
//
//	record := magic "PNRC" | version u16
//	          | fpLen u32 | fingerprint (canonical compact JSON)
//	          | total u64 | count u32 | task × count
//	task   := index i64 | seed i64 | groupLen u32 | group
//	          | survived u8 | brownouts i64
//	          | stability, instructions, lifetime, finalVC, minVC, dEnergy f64
//	          | bins u32 | bin f64 × bins | under f64 | over f64 | histTotal f64
//
// A checkpoint carries its study fingerprint as JSON, so the study
// identity keeps the one definition Fingerprint gives it. A cached cell
// carries none (fpLen 0, total = count): its identity is its cache key,
// and CellCheckpoint re-validates it against the restoring study.
//
// The decoder trusts nothing: every length is bounded by the bytes that
// remain, trailing bytes, non-finite values and Survived bytes other
// than 0 or 1 are refused, and checkpoints then pass Validate (which
// refuses unsorted or duplicate records).

const (
	recordMagic = "PNRC"
	// recordVersion is the binary record format. Version 1 was the
	// indented JSON checkpoint, which this build refuses.
	recordVersion = 2

	recordHeaderBytes = len(recordMagic) + 2 + 4
	// minTaskBytes is the size of a task with no group and no bins; it
	// bounds a declared task count by the bytes that remain.
	minTaskBytes = 8 + 8 + 4 + 1 + 8 + 6*8 + 4 + 3*8
)

// WriteBinary writes the checkpoint as a binary record — the format
// ReadCheckpoint reads. Fits studycli.WriteFileAtomic.
func (cp *Checkpoint) WriteBinary(w io.Writer) error {
	fp, err := json.Marshal(cp.Fingerprint)
	if err != nil {
		return fmt.Errorf("study: encoding checkpoint fingerprint: %w", err)
	}
	_, err = w.Write(encodeRecord(fp, cp.Total, cp.Records))
	return err
}

// ReadCheckpoint decodes a checkpoint written by WriteBinary. The
// completed ranges are rebuilt from the records (never trusted from the
// input) and the result is validated: a truncated or padded record, a
// non-finite value, duplicate, unsorted or out-of-range task indices, or
// inconsistent histogram counters are diagnostic errors here, not wrong
// aggregates later. A checkpoint in the retired JSON format is refused
// with a versioned diagnostic.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("study: reading checkpoint: %w", err)
	}
	fp, total, recs, err := decodeRecord(raw)
	if err != nil {
		return nil, fmt.Errorf("study: reading checkpoint: %w", err)
	}
	if len(fp) == 0 {
		return nil, fmt.Errorf("study: reading checkpoint: record carries no study fingerprint (a cached cell, not a checkpoint)")
	}
	cp := &Checkpoint{Total: total, Records: recs}
	if cp.Fingerprint, err = decodeFingerprint(fp); err != nil {
		return nil, err
	}
	cp.rebuildRanges()
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return cp, nil
}

// decodeFingerprint decodes a record's fingerprint. Only the canonical
// encoding (json.Marshal's) is accepted, so an unknown field — a
// fingerprint from a build that identifies studies differently — is
// refused rather than dropped, and a record has one byte form.
func decodeFingerprint(raw []byte) (Fingerprint, error) {
	var fp Fingerprint
	if err := json.Unmarshal(raw, &fp); err != nil {
		return Fingerprint{}, fmt.Errorf("study: reading checkpoint fingerprint: %w", err)
	}
	if canon, err := json.Marshal(fp); err != nil || !bytes.Equal(canon, raw) {
		return Fingerprint{}, fmt.Errorf("study: reading checkpoint fingerprint: not the canonical encoding of a fingerprint this build knows")
	}
	return fp, nil
}

// EncodeCell extracts cell i's records from a checkpoint (see
// ExtractCellRecords) and encodes them as a fingerprint-free binary
// record — the value a content-addressed cell cache stores under the
// cell's CellIdentity digest.
func (st Study) EncodeCell(cp *Checkpoint, i int) ([]byte, error) {
	recs, err := st.ExtractCellRecords(cp, i)
	if err != nil {
		return nil, err
	}
	return encodeRecord(nil, len(recs), recs), nil
}

// RestoreCell decodes a cell record written by EncodeCell and rebuilds
// it as cell i's chunk checkpoint of this study (see CellCheckpoint):
// seeds are verified against the study's ledger and the result passes
// full checkpoint validation, so it can go straight into a Folder.
func (st Study) RestoreCell(i int, raw []byte) (*Checkpoint, error) {
	fp, total, recs, err := decodeRecord(raw)
	if err != nil {
		return nil, fmt.Errorf("study: reading cell record: %w", err)
	}
	if len(fp) != 0 || total != len(recs) {
		return nil, fmt.Errorf("study: reading cell record: not a cell record (fingerprint %d bytes, ledger size %d for %d tasks)",
			len(fp), total, len(recs))
	}
	return st.CellCheckpoint(i, recs)
}

// encodeRecord encodes one binary record.
func encodeRecord(fp []byte, total int, recs []TaskRecord) []byte {
	size := recordHeaderBytes + len(fp) + 8 + 4
	for i := range recs {
		size += minTaskBytes + len(recs[i].Group) + 8*len(recs[i].HistBins)
	}
	dst := make([]byte, 0, size)
	le := binary.LittleEndian
	dst = append(dst, recordMagic...)
	dst = le.AppendUint16(dst, recordVersion)
	dst = le.AppendUint32(dst, uint32(len(fp)))
	dst = append(dst, fp...)
	dst = le.AppendUint64(dst, uint64(total))
	dst = le.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		rec := &recs[i]
		m := &rec.Metrics
		dst = le.AppendUint64(dst, uint64(rec.Index))
		dst = le.AppendUint64(dst, uint64(rec.Seed))
		dst = le.AppendUint32(dst, uint32(len(rec.Group)))
		dst = append(dst, rec.Group...)
		survived := byte(0)
		if m.Survived {
			survived = 1
		}
		dst = append(dst, survived)
		dst = le.AppendUint64(dst, uint64(m.Brownouts))
		for _, v := range [...]float64{m.Stability, m.Instructions, m.LifetimeSeconds, m.FinalVC, m.MinVC, m.StorageEnergyDeltaJ} {
			dst = le.AppendUint64(dst, math.Float64bits(v))
		}
		dst = le.AppendUint32(dst, uint32(len(rec.HistBins)))
		for _, w := range rec.HistBins {
			dst = le.AppendUint64(dst, math.Float64bits(w))
		}
		dst = le.AppendUint64(dst, math.Float64bits(rec.HistUnder))
		dst = le.AppendUint64(dst, math.Float64bits(rec.HistOver))
		dst = le.AppendUint64(dst, math.Float64bits(rec.HistTotal))
	}
	return dst
}

// recordReader walks a binary record. The first failure sticks: later
// reads return zero values, and the caller checks err once per field
// group.
type recordReader struct {
	b   []byte
	off int
	err error
}

var errTruncated = errors.New("truncated")

// take returns the next n bytes, or nil once fewer remain.
func (r *recordReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.err = errTruncated
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *recordReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *recordReader) u16() uint16 {
	if p := r.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *recordReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *recordReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// length reads a u32 length of elements of the given size, refusing one
// the remaining bytes cannot hold.
func (r *recordReader) length(elem int) int {
	n := int(r.u32())
	if r.err == nil && n > (len(r.b)-r.off)/elem {
		r.err = errTruncated
	}
	return n
}

// finite reads one float, refusing NaN and ±Inf: a record carries
// measurements, and no measurement is non-finite.
func (r *recordReader) finite(task int64, field string) float64 {
	v := math.Float64frombits(r.u64())
	if r.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		r.err = fmt.Errorf("task %d %s is %g — records carry finite values only", task, field, v)
	}
	return v
}

// metricFields names the float metrics in record order.
var metricFields = [...]string{"stability", "instructions", "lifetime", "final VC", "min VC", "storage energy delta"}

// decodeRecord parses one binary record strictly, returning the raw
// fingerprint JSON (empty for a cell record), the ledger size and the
// tasks. Validation beyond the encoding itself is the caller's.
func decodeRecord(raw []byte) (fp []byte, total int, recs []TaskRecord, err error) {
	wrap := func(err error) error {
		return fmt.Errorf("binary record (format version %d): %w", recordVersion, err)
	}
	if trimmed := bytes.TrimLeft(raw, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		return nil, 0, nil, fmt.Errorf("input is a JSON checkpoint (format version 1); this build reads only binary record format version %d — rerun the shard with this build (WriteJSON output is a rendering, not an input)", recordVersion)
	}
	r := &recordReader{b: raw}
	if magic := r.take(len(recordMagic)); string(magic) != recordMagic {
		if r.err != nil {
			return nil, 0, nil, wrap(fmt.Errorf("truncated header (%d bytes)", len(raw)))
		}
		return nil, 0, nil, wrap(fmt.Errorf("bad magic %q, not a pnps record", magic))
	}
	if v := r.u16(); r.err == nil && v != recordVersion {
		return nil, 0, nil, fmt.Errorf("record is format version %d, this build reads version %d", v, recordVersion)
	}
	fp = r.take(r.length(1))
	t := r.u64()
	if r.err == nil && t > math.MaxInt64 {
		return nil, 0, nil, wrap(fmt.Errorf("ledger size %d out of range", t))
	}
	n := r.length(minTaskBytes)
	if r.err != nil {
		return nil, 0, nil, wrap(fmt.Errorf("%w header (%d bytes)", r.err, len(raw)))
	}

	recs = make([]TaskRecord, n)
	var bins []float64 // one backing array for every task's bins
	for k := range recs {
		rec := &recs[k]
		rec.Index = int(int64(r.u64()))
		rec.Seed = int64(r.u64())
		rec.Group = string(r.take(r.length(1)))
		m := &rec.Metrics
		switch s := r.u8(); {
		case r.err != nil:
		case s > 1:
			return nil, 0, nil, wrap(fmt.Errorf("task %d survived byte %d, want 0 or 1", rec.Index, s))
		default:
			m.Survived = s == 1
		}
		m.Brownouts = int(int64(r.u64()))
		idx := int64(rec.Index)
		for f, p := range [...]*float64{&m.Stability, &m.Instructions, &m.LifetimeSeconds, &m.FinalVC, &m.MinVC, &m.StorageEnergyDeltaJ} {
			*p = r.finite(idx, metricFields[f])
		}
		if nb := r.length(8); r.err == nil && nb > 0 {
			if len(bins) < nb {
				// Size the shared array for every remaining task at this
				// bin count, bounded by the bytes left to read.
				bins = make([]float64, min(nb*(n-k), (len(raw)-r.off)/8))
			}
			rec.HistBins, bins = bins[:nb:nb], bins[nb:]
			p := r.take(8 * nb)
			for b := range rec.HistBins {
				v := math.Float64frombits(binary.LittleEndian.Uint64(p[8*b:]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, 0, nil, wrap(fmt.Errorf("task %d histogram bin %d is %g — records carry finite values only", idx, b, v))
				}
				rec.HistBins[b] = v
			}
		}
		rec.HistUnder = r.finite(idx, "histogram underflow")
		rec.HistOver = r.finite(idx, "histogram overflow")
		rec.HistTotal = r.finite(idx, "histogram total")
		if r.err != nil {
			if errors.Is(r.err, errTruncated) {
				return nil, 0, nil, wrap(fmt.Errorf("truncated in task record %d of %d", k, n))
			}
			return nil, 0, nil, wrap(r.err)
		}
	}
	if rest := len(raw) - r.off; rest > 0 {
		return nil, 0, nil, wrap(fmt.Errorf("%d trailing bytes after %d tasks", rest, n))
	}
	return fp, int(t), recs, nil
}
