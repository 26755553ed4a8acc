package study

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Cell-level content addressing: the unit of cross-study result reuse.
//
// A study's outcome is a deterministic function of its fingerprint, but
// the fingerprint identifies the whole matrix — two studies that differ
// in one axis level share every other column of the matrix and none of
// the fingerprint. CellIdentity is the finer-grained identity: one
// matrix cell's repetitions are fully determined by the base-spec
// digest, the axis levels the cell selects, the per-repetition seeds,
// and the observer configuration (stability bands and dwell-histogram
// geometry). Two cells with equal identities — in the same study or in
// different studies submitted days apart — produce bit-identical task
// records, so a content-addressed store keyed by CellIdentity.Digest
// can answer them without simulating (see internal/serve).
//
// The identity deliberately excludes execution detail (Workers —
// outcomes are bit-identical at any worker count) and KeepSeries:
// like checkpoints, cached cell records carry metrics and histograms
// only, which is everything aggregation consumes.

// CellLevel names one axis level a cell selects.
type CellLevel struct {
	Axis  string `json:"axis"`
	Level string `json:"level"`
}

// CellIdentity is the serialisable identity of one matrix cell's slice
// of the task ledger. Equal identities guarantee bit-identical task
// records (metrics and dwell histograms) whatever study the cell is
// embedded in.
type CellIdentity struct {
	// Base pins the scalar identity of the base scenario.
	Base BaseDigest `json:"base"`
	// Levels are the axis levels this cell selects, in axis order.
	Levels []CellLevel `json:"levels,omitempty"`
	// Seeds are the derived per-repetition seeds, in repetition order —
	// the explicit seed list, so cells match across studies even when
	// their ledger positions (and hence SeedPerTask derivations) differ.
	Seeds []int64 `json:"seeds"`
	// StabilityBands are the effective per-run stability bands.
	StabilityBands []float64 `json:"stability_bands"`
	// VCHistBins/Lo/Hi pin the dwell-histogram geometry.
	VCHistBins int     `json:"vc_hist_bins,omitempty"`
	VCHistLo   float64 `json:"vc_hist_lo,omitempty"`
	VCHistHi   float64 `json:"vc_hist_hi,omitempty"`
}

// Digest returns the canonical content address of the identity: the
// hex SHA-256 of its canonical JSON encoding (fixed field order, so the
// digest is stable across processes and versions of the same schema).
func (ci CellIdentity) Digest() (string, error) {
	raw, err := json.Marshal(ci)
	if err != nil {
		return "", fmt.Errorf("study: digesting cell identity: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Digest returns the canonical content address of the whole-study
// identity — the hex SHA-256 of the fingerprint's canonical JSON. Every
// input that can change the outcome is part of the fingerprint, and
// nothing that cannot (worker counts, engine, batch width), so equal
// digests guarantee bit-identical outcomes.
func (f Fingerprint) Digest() (string, error) {
	raw, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("study: digesting fingerprint: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// cacheable rejects studies whose per-run behaviour is shaped by
// non-serialisable hooks: a Vary or Group func is code, not data, so
// cell identities cannot promise bit-identical records across
// processes that may run different code.
func (st Study) cacheable() error {
	if st.Vary != nil {
		return fmt.Errorf("study: cell identities need a hook-free study (Vary is set and cannot be serialised)")
	}
	if st.Group != nil {
		return fmt.Errorf("study: cell identities need a hook-free study (Group is set and cannot be serialised)")
	}
	return nil
}

// CellIdentities validates the study and returns one identity per
// matrix cell, in canonical cell order. It refuses studies with Vary or
// Group hooks — their effect on records is code, not serialisable data.
func (st Study) CellIdentities() ([]CellIdentity, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if err := st.cacheable(); err != nil {
		return nil, err
	}
	base := baseDigest(st.Base)
	bands := append([]float64(nil), st.stabilityBands()...)
	out := make([]CellIdentity, len(p.cells))
	for c := range p.cells {
		ci := CellIdentity{
			Base: base, StabilityBands: bands,
			VCHistBins: st.VCHistBins, VCHistLo: st.VCHistLo, VCHistHi: st.VCHistHi,
			Seeds: make([]int64, p.reps),
		}
		for i := range st.Axes {
			ci.Levels = append(ci.Levels, CellLevel{
				Axis: st.Axes[i].Name, Level: p.cells[c].Labels[i],
			})
		}
		for rep := 0; rep < p.reps; rep++ {
			ci.Seeds[rep] = st.taskSeed(c*p.reps+rep, rep)
		}
		out[c] = ci
	}
	return out, nil
}

// CellRange returns cell i's contiguous task range — the ledger slice
// its repetitions occupy (cells are rep-major: task = cell·reps + rep).
func (st Study) CellRange(i int) (TaskRange, error) {
	p, err := st.plan()
	if err != nil {
		return TaskRange{}, err
	}
	if i < 0 || i >= len(p.cells) {
		return TaskRange{}, fmt.Errorf("study: cell %d outside [0,%d)", i, len(p.cells))
	}
	return TaskRange{Lo: i * p.reps, Hi: (i + 1) * p.reps}, nil
}

// ExtractCellRecords cuts cell i's task records out of a checkpoint and
// re-bases their indices to repetition order (0..reps-1) — the storable
// form a content-addressed cache keys by CellIdentity.Digest. The
// checkpoint must cover the whole cell; records are deep-copied, so
// later mutation of the checkpoint cannot corrupt the cache entry.
func (st Study) ExtractCellRecords(cp *Checkpoint, i int) ([]TaskRecord, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if err := st.cacheable(); err != nil {
		return nil, err
	}
	if err := st.checkFingerprint(p, cp); err != nil {
		return nil, err
	}
	if i < 0 || i >= len(p.cells) {
		return nil, fmt.Errorf("study: cell %d outside [0,%d)", i, len(p.cells))
	}
	lo, hi := i*p.reps, (i+1)*p.reps
	out := make([]TaskRecord, 0, p.reps)
	for _, rec := range cp.Records {
		if rec.Index < lo || rec.Index >= hi {
			continue
		}
		rec.Index -= lo
		rec.HistBins = append([]float64(nil), rec.HistBins...)
		out = append(out, rec)
	}
	if len(out) != p.reps {
		return nil, fmt.Errorf("study: checkpoint covers %d of cell %d's %d repetitions", len(out), i, p.reps)
	}
	return out, nil
}

// CellCheckpoint rebuilds the chunk checkpoint of cell i of this study
// from repetition-relative records (the cache-restore path: records
// extracted from one study re-based into another that shares the cell).
// Seeds are verified against the study's own derivation — a record
// whose seed disagrees with the ledger is a mis-keyed cache entry and
// is refused, never folded — and the result passes full checkpoint
// validation, so it can go straight into a Folder.
func (st Study) CellCheckpoint(i int, recs []TaskRecord) (*Checkpoint, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if err := st.cacheable(); err != nil {
		return nil, err
	}
	if i < 0 || i >= len(p.cells) {
		return nil, fmt.Errorf("study: cell %d outside [0,%d)", i, len(p.cells))
	}
	if len(recs) != p.reps {
		return nil, fmt.Errorf("study: cell %d restore carries %d records, want %d", i, len(recs), p.reps)
	}
	cp := &Checkpoint{
		Fingerprint: st.fingerprint(p),
		Total:       p.total,
		Records:     make([]TaskRecord, len(recs)),
	}
	for rep, rec := range recs {
		if rec.Index != rep {
			return nil, fmt.Errorf("study: cell %d restore record %d carries repetition index %d", i, rep, rec.Index)
		}
		t := p.task(st, i*p.reps+rep)
		if rec.Seed != t.Seed {
			return nil, fmt.Errorf("study: cell %d repetition %d seed %d disagrees with ledger seed %d — mis-keyed cache entry",
				i, rep, rec.Seed, t.Seed)
		}
		rec.Index = t.Index
		rec.HistBins = append([]float64(nil), rec.HistBins...)
		cp.Records[rep] = rec
	}
	cp.rebuildRanges()
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return cp, nil
}
