package study

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Cell-level content addressing: the unit of cross-study result reuse.
//
// A study's outcome is a deterministic function of its fingerprint, but
// the fingerprint identifies the whole matrix — two studies that differ
// in one axis level share every other column of the matrix and none of
// the fingerprint. A cell's key is the finer-grained identity, derived
// one way for both stores that reuse cells:
//
//   - The seed-free key digests the base-spec digest, the effective
//     stability bands, the dwell-histogram geometry (only when the
//     study keeps histograms), the axis names and the levels the cell
//     selects, and the tenant (Bind's namespace). A RunStore keeps the
//     cell's cloud-free run under it.
//   - The cell-cache key (StudyRuns.CellKey) digests the seed-free key
//     and the cell's per-repetition seeds in repetition order — the
//     explicit seed list, so cells match across studies even when their
//     ledger positions (and hence SeedPerTask derivations) differ. Two
//     cells with equal cell-cache keys, in the same study or in studies
//     submitted days apart, produce bit-identical task records, so a
//     content-addressed store keyed by it can answer them without
//     simulating (see internal/serve).
//
// Keys exclude execution detail (Workers — outcomes are bit-identical
// at any worker count) and, like the fingerprint, take the base
// scenario's name and the level labels to stand for the code behind
// them. Keys live only in memory, so no stored byte depends on their
// form.

// runKey is a cell's seed-free key: a SHA-256.
type runKey [sha256.Size]byte

// runKeys derives every cell's seed-free key in tenant's namespace:
// the SHA-256 of the digest of the part every cell shares, as JSON,
// then the cell's axis names and levels, each after its length.
func (p *plan) runKeys(tenant string) ([]runKey, error) {
	shared := struct {
		Tenant string     `json:"tenant"`
		Base   BaseDigest `json:"base"`
		Bands  []float64  `json:"stability_bands"`
		Bins   int        `json:"vc_hist_bins"`
		Lo     float64    `json:"vc_hist_lo"`
		Hi     float64    `json:"vc_hist_hi"`
	}{Tenant: tenant, Base: p.fp.Base, Bands: p.bands}
	if p.st.VCHistBins > 0 {
		shared.Bins, shared.Lo, shared.Hi = p.st.VCHistBins, p.st.VCHistLo, p.st.VCHistHi
	}
	raw, err := json.Marshal(shared)
	if err != nil {
		return nil, fmt.Errorf("study: keying cells: %w", err)
	}
	sum := sha256.Sum256(raw)
	keys := make([]runKey, len(p.cells))
	buf := make([]byte, 0, 256)
	for c, cell := range p.cells {
		buf = append(buf[:0], sum[:]...)
		for i, ax := range p.st.Axes {
			buf = append(binary.AppendUvarint(buf, uint64(len(ax.Name))), ax.Name...)
			buf = append(binary.AppendUvarint(buf, uint64(len(cell.Labels[i]))), cell.Labels[i]...)
		}
		keys[c] = sha256.Sum256(buf)
	}
	return keys, nil
}

// CellKey returns the cell-cache key of cell i, which must be in
// [0, Cells()): the hex SHA-256 of the cell's seed-free key and its
// repetitions' seeds.
func (sr *StudyRuns) CellKey(i int) (string, error) {
	if err := sr.keyed(); err != nil {
		return "", err
	}
	p := sr.p
	buf := make([]byte, 0, sha256.Size+8*p.reps)
	buf = append(buf, sr.keys[i][:]...)
	for t := i * p.reps; t < (i+1)*p.reps; t++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.task(t).Seed))
	}
	sum := sha256.Sum256(buf)
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
