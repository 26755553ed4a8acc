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
// outcomes are bit-identical at any worker count): like checkpoints,
// cached cell records carry metrics and histograms only, which is
// everything aggregation consumes.

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

// CellIdentities validates the study and returns one identity per
// matrix cell, in canonical cell order.
func (st Study) CellIdentities() ([]CellIdentity, error) {
	p, err := st.plan()
	if err != nil {
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
