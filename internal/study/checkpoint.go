package study

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"pnps/internal/scenario"
	"pnps/internal/soc"
	"pnps/internal/stats"
)

// Fingerprint identifies a study plan: merging or resuming checkpoints
// is only meaningful between executions of the identical matrix, so
// every checkpoint carries the shape it was cut from and every
// consumer verifies it.
type Fingerprint struct {
	Name     string       `json:"name,omitempty"`
	Base     BaseDigest   `json:"base"`
	Seed     int64        `json:"seed"`
	SeedMode SeedMode     `json:"seed_mode"`
	Reps     int          `json:"reps"`
	Axes     []AxisDigest `json:"axes,omitempty"`
	// VCHistBins/Lo/Hi pin the dwell-histogram configuration: merging
	// records with differently-binned histograms would corrupt them.
	VCHistBins int     `json:"vc_hist_bins,omitempty"`
	VCHistLo   float64 `json:"vc_hist_lo,omitempty"`
	VCHistHi   float64 `json:"vc_hist_hi,omitempty"`
}

// BaseDigest pins the scalar identity of the base scenario, so shards
// cut from materially different runs (a 60 s vs a 120 s study of the
// same matrix, say) refuse to merge. Function-valued spec fields
// (Profile, Source, Storage, axis setters) cannot be digested — the
// study definition is code; running shards with divergent code is on
// the caller.
type BaseDigest struct {
	Scenario    string           `json:"scenario,omitempty"`
	Duration    float64          `json:"duration"`
	Utilisation float64          `json:"utilisation,omitempty"`
	InitialVC   float64          `json:"initial_vc,omitempty"`
	TargetVolts float64          `json:"target_volts,omitempty"`
	MaxStep     float64          `json:"max_step,omitempty"`
	Boot        soc.OPP          `json:"boot"`
	Control     scenario.Control `json:"control"`
}

func baseDigest(sp scenario.Spec) BaseDigest {
	return BaseDigest{
		Scenario: sp.Name, Duration: sp.Duration, Utilisation: sp.Utilisation,
		InitialVC: sp.InitialVC, TargetVolts: sp.TargetVolts, MaxStep: sp.MaxStep,
		Boot: sp.Boot, Control: sp.Control,
	}
}

// AxisDigest is the serialisable identity of one axis: its name and
// level labels (the setters themselves cannot be serialised — the
// study definition is code, the checkpoint is data).
type AxisDigest struct {
	Name   string   `json:"name"`
	Levels []string `json:"levels"`
}

// Equal reports whether two fingerprints identify the same study —
// what a worker checks against a coordinator before leasing work, and
// what every checkpoint consumer checks before aggregating.
func (f Fingerprint) Equal(other Fingerprint) bool { return f.equal(other) }

// equal compares fingerprints structurally.
func (f Fingerprint) equal(other Fingerprint) bool {
	if f.Name != other.Name || f.Base != other.Base ||
		f.Seed != other.Seed || f.SeedMode != other.SeedMode ||
		f.Reps != other.Reps || f.VCHistBins != other.VCHistBins ||
		f.VCHistLo != other.VCHistLo || f.VCHistHi != other.VCHistHi ||
		len(f.Axes) != len(other.Axes) {
		return false
	}
	for i, ax := range f.Axes {
		o := other.Axes[i]
		if ax.Name != o.Name || len(ax.Levels) != len(o.Levels) {
			return false
		}
		for j, lv := range ax.Levels {
			if lv != o.Levels[j] {
				return false
			}
		}
	}
	return true
}

// Fingerprint validates the study and returns its serialisable
// identity — what the coordinator publishes and workers verify before
// leasing work, so flag or code skew between machines is caught before
// any simulation runs rather than at merge time.
func (st Study) Fingerprint() (Fingerprint, error) {
	p, err := st.plan()
	if err != nil {
		return Fingerprint{}, err
	}
	return st.fingerprint(p), nil
}

// fingerprint derives the study's identity from its validated plan.
func (st Study) fingerprint(p *plan) Fingerprint {
	f := Fingerprint{
		Name: st.Name, Base: baseDigest(st.Base),
		Seed: st.Seed, SeedMode: st.SeedMode, Reps: p.reps,
		VCHistBins: st.VCHistBins, VCHistLo: st.VCHistLo, VCHistHi: st.VCHistHi,
	}
	for _, ax := range st.Axes {
		d := AxisDigest{Name: ax.Name, Levels: make([]string, len(ax.Levels))}
		for i, lv := range ax.Levels {
			d.Levels[i] = lv.Label
		}
		f.Axes = append(f.Axes, d)
	}
	return f
}

func (st Study) checkFingerprint(p *plan, cp *Checkpoint) error {
	if err := cp.Validate(); err != nil {
		return err
	}
	if !st.fingerprint(p).equal(cp.Fingerprint) {
		return fmt.Errorf("study: checkpoint belongs to a different study (fingerprint mismatch)")
	}
	if cp.Total != p.total {
		return fmt.Errorf("study: checkpoint ledger size %d, study has %d tasks", cp.Total, p.total)
	}
	return nil
}

// TaskRange is a half-open [Lo, Hi) span of ledger task indices — the
// unit of the resumable seed-range ledger.
type TaskRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

func (r TaskRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// TaskRecord is one completed task in a checkpoint: the ledger index,
// its derived seed, and everything aggregation consumes. Dwell
// histograms are stored per task so that merged outcomes replay
// accumulation in canonical task order — the property that makes
// sharded and resumed studies bit-identical to unsharded runs.
type TaskRecord struct {
	Index   int        `json:"task"`
	Seed    int64      `json:"seed"`
	Group   string     `json:"group,omitempty"`
	Metrics RunMetrics `json:"metrics"`

	HistBins  []float64 `json:"hist_bins,omitempty"`
	HistUnder float64   `json:"hist_under,omitempty"`
	HistOver  float64   `json:"hist_over,omitempty"`
	HistTotal float64   `json:"hist_total,omitempty"`
}

// Checkpoint is the serialisable state of a partially (or fully)
// executed study: which ledger ranges are done and the per-task
// records needed to finish the aggregation later, elsewhere, or both.
// Shards produce checkpoints; Merge unions them; Study.Resume fills
// the gaps; Study.Outcome folds a complete checkpoint into a
// StudyOutcome bit-identical to an unsharded run's.
//
// Checkpoints travel across trust boundaries (files, the coordinator's
// HTTP submissions), so none of their invariants are assumed: every
// consumer re-validates record uniqueness, index bounds and histogram
// consistency via Validate, and Completed is always rebuilt from the
// records rather than trusted from the wire.
type Checkpoint struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	// Total is the full ledger size (cells × reps).
	Total int `json:"total_tasks"`
	// Completed lists the done task ranges, sorted and coalesced.
	Completed []TaskRange `json:"completed"`
	// Records holds one entry per completed task, sorted by index.
	Records []TaskRecord `json:"records"`
}

// checkpointFrom cuts a checkpoint from executed task results.
func (st Study) checkpointFrom(p *plan, results []TaskResult) (*Checkpoint, error) {
	cp := &Checkpoint{
		Fingerprint: st.fingerprint(p),
		Total:       p.total,
		Records:     make([]TaskRecord, len(results)),
	}
	for i, r := range results {
		rec := TaskRecord{
			Index: r.Task.Index, Seed: r.Task.Seed, Group: r.Group, Metrics: r.Metrics,
		}
		if h := r.Hist; h != nil {
			rec.HistBins = append([]float64(nil), h.Bins...)
			rec.HistUnder = h.Underflow()
			rec.HistOver = h.Overflow()
			rec.HistTotal = h.Total()
		}
		cp.Records[i] = rec
	}
	sort.Slice(cp.Records, func(i, j int) bool { return cp.Records[i].Index < cp.Records[j].Index })
	cp.rebuildRanges()
	return cp, nil
}

// rebuildRanges recomputes Completed from the sorted Records.
func (cp *Checkpoint) rebuildRanges() {
	cp.Completed = cp.Completed[:0]
	for _, rec := range cp.Records {
		if n := len(cp.Completed); n > 0 && cp.Completed[n-1].Hi == rec.Index {
			cp.Completed[n-1].Hi++
			continue
		}
		cp.Completed = append(cp.Completed, TaskRange{Lo: rec.Index, Hi: rec.Index + 1})
	}
}

// completedSet expands the record list into a membership set.
func (cp *Checkpoint) completedSet() map[int]bool {
	done := make(map[int]bool, len(cp.Records))
	for _, rec := range cp.Records {
		done[rec.Index] = true
	}
	return done
}

// clone deep-copies the checkpoint.
func (cp *Checkpoint) clone() *Checkpoint {
	out := &Checkpoint{Fingerprint: cp.Fingerprint, Total: cp.Total}
	out.Records = make([]TaskRecord, len(cp.Records))
	for i, rec := range cp.Records {
		rec.HistBins = append([]float64(nil), rec.HistBins...)
		out.Records[i] = rec
	}
	out.rebuildRanges()
	return out
}

// Complete reports whether every ledger task has a record. The check is
// structural — the coalesced ranges must be exactly one span covering
// [0, Total) — not a record count: a corrupt checkpoint with duplicate
// indices can hold Total records without covering the ledger, and must
// not pass as complete (see Validate for the full invariant set).
func (cp *Checkpoint) Complete() bool {
	if len(cp.Records) != cp.Total {
		return false
	}
	if cp.Total == 0 {
		return true
	}
	return len(cp.Completed) == 1 && cp.Completed[0] == (TaskRange{Lo: 0, Hi: cp.Total})
}

// histTotalTol is the relative tolerance of the HistTotal-vs-bin-sum
// consistency check. The histogram's total accumulates observation by
// observation while the bins accumulate per bucket, so the two sums may
// disagree by floating-point regrouping error — bounded by n·ε over the
// observation count, orders of magnitude below this tolerance — but a
// corrupted or hand-edited counter disagrees grossly.
const histTotalTol = 1e-6

// Validate checks the structural invariants a checkpoint must satisfy
// before any of its records may be aggregated: record indices unique,
// sorted and inside [0, Total), and histogram state self-consistent
// (non-negative finite weights, bin count matching the fingerprint's
// pinned configuration, total matching the bin sum). Checkpoints cross
// trust boundaries — files that may have been corrupted or hand-edited,
// HTTP submissions from workers — so every deserialisation and merge
// boundary (ReadCheckpoint, Merge, Resume, Outcome, the coordinator's
// submission handler) re-validates rather than trusting its input.
func (cp *Checkpoint) Validate() error {
	if cp.Total < 0 {
		return fmt.Errorf("study: checkpoint ledger size %d is negative", cp.Total)
	}
	if len(cp.Records) > cp.Total {
		return fmt.Errorf("study: checkpoint holds %d records for a %d-task ledger", len(cp.Records), cp.Total)
	}
	prev := -1
	for i := range cp.Records {
		rec := &cp.Records[i]
		if rec.Index < 0 || rec.Index >= cp.Total {
			return fmt.Errorf("study: checkpoint record index %d outside ledger [0,%d)", rec.Index, cp.Total)
		}
		if rec.Index == prev {
			return fmt.Errorf("study: checkpoint holds duplicate records for task %d", rec.Index)
		}
		if rec.Index < prev {
			return fmt.Errorf("study: checkpoint records unsorted at task %d", rec.Index)
		}
		prev = rec.Index
		if err := rec.validateHist(cp.Fingerprint.VCHistBins); err != nil {
			return err
		}
	}
	return nil
}

// validateHist checks one record's serialised histogram state against
// the fingerprint's pinned bin count (0 = the study runs without dwell
// histograms, so records must not carry any).
func (rec *TaskRecord) validateHist(wantBins int) error {
	if len(rec.HistBins) == 0 {
		if rec.HistTotal != 0 || rec.HistUnder != 0 || rec.HistOver != 0 {
			return fmt.Errorf("study: task %d carries histogram counters without bins", rec.Index)
		}
		if wantBins > 0 {
			return fmt.Errorf("study: task %d missing its dwell histogram (study pins %d bins)", rec.Index, wantBins)
		}
		return nil
	}
	if len(rec.HistBins) != wantBins {
		return fmt.Errorf("study: task %d histogram has %d bins, study pins %d", rec.Index, len(rec.HistBins), wantBins)
	}
	sum := rec.HistUnder + rec.HistOver
	for b, w := range rec.HistBins {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("study: task %d histogram bin %d has invalid weight %g", rec.Index, b, w)
		}
		sum += w
	}
	for _, c := range []struct {
		name string
		w    float64
	}{{"underflow", rec.HistUnder}, {"overflow", rec.HistOver}, {"total", rec.HistTotal}} {
		if c.w < 0 || math.IsNaN(c.w) || math.IsInf(c.w, 0) {
			return fmt.Errorf("study: task %d histogram %s %g invalid", rec.Index, c.name, c.w)
		}
	}
	if diff := math.Abs(rec.HistTotal - sum); diff > histTotalTol*math.Max(1, math.Max(rec.HistTotal, sum)) {
		return fmt.Errorf("study: task %d histogram total %g inconsistent with bin sum %g", rec.Index, rec.HistTotal, sum)
	}
	return nil
}

// Missing returns the ledger ranges still to execute, sorted.
func (cp *Checkpoint) Missing() []TaskRange {
	var missing []TaskRange
	next := 0
	for _, r := range cp.Completed {
		if r.Lo > next {
			missing = append(missing, TaskRange{Lo: next, Hi: r.Lo})
		}
		next = r.Hi
	}
	if next < cp.Total {
		missing = append(missing, TaskRange{Lo: next, Hi: cp.Total})
	}
	return missing
}

// Merge folds the other checkpoint into cp. Both must stem from the
// same study, and their completed task sets must be disjoint — the
// ledger guarantees every task runs exactly once, so an overlap means
// two shards were mis-split and is an error, not a tie-break. Both
// sides are re-validated first (checkpoints cross trust boundaries),
// and the merged records are deep copies: other's backing arrays are
// never aliased, so later mutation of cp cannot corrupt its sources.
func (cp *Checkpoint) Merge(other *Checkpoint) error {
	if err := cp.Validate(); err != nil {
		return fmt.Errorf("study: merge target invalid: %w", err)
	}
	if err := other.Validate(); err != nil {
		return fmt.Errorf("study: merge source invalid: %w", err)
	}
	if !cp.Fingerprint.equal(other.Fingerprint) {
		return fmt.Errorf("study: merge of checkpoints from different studies")
	}
	if cp.Total != other.Total {
		return fmt.Errorf("study: merge of checkpoints with ledger sizes %d vs %d", cp.Total, other.Total)
	}
	done := cp.completedSet()
	for _, rec := range other.Records {
		if done[rec.Index] {
			return fmt.Errorf("study: merge overlap at task %d — shards must partition the ledger", rec.Index)
		}
	}
	for _, rec := range other.Records {
		rec.HistBins = append([]float64(nil), rec.HistBins...)
		cp.Records = append(cp.Records, rec)
	}
	sort.Slice(cp.Records, func(i, j int) bool { return cp.Records[i].Index < cp.Records[j].Index })
	cp.rebuildRanges()
	return nil
}

// MergeCheckpoints unions shard checkpoints into one. None of the
// inputs are mutated, and the result shares no backing arrays with
// them — records are deep-copied on the way in.
func MergeCheckpoints(cps ...*Checkpoint) (*Checkpoint, error) {
	if len(cps) == 0 {
		return nil, fmt.Errorf("study: nothing to merge")
	}
	if err := cps[0].Validate(); err != nil {
		return nil, err
	}
	out := cps[0].clone()
	for _, cp := range cps[1:] {
		if err := out.Merge(cp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteJSON renders the checkpoint as indented JSON for people to
// read. It is not an input format: ReadCheckpoint reads only the binary
// record WriteBinary writes.
func (cp *Checkpoint) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(cp)
}

// Outcome folds a complete checkpoint into the study's aggregate. The
// checkpoint must belong to this study and cover the whole ledger; an
// incomplete checkpoint errors with the missing ranges. The outcome is
// bit-identical to an unsharded Run of the same study (its Results
// carry metrics and histograms but no *sim.Result — the simulations
// happened elsewhere).
func (st Study) Outcome(cp *Checkpoint) (*StudyOutcome, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if err := st.checkFingerprint(p, cp); err != nil {
		return nil, err
	}
	if !cp.Complete() {
		return nil, fmt.Errorf("study: checkpoint incomplete — missing task ranges %v", cp.Missing())
	}
	results := make([]TaskResult, len(cp.Records))
	for i, rec := range cp.Records {
		results[i] = TaskResult{
			Task:    p.task(st, rec.Index),
			Group:   rec.Group,
			Metrics: rec.Metrics,
		}
		if len(rec.HistBins) > 0 {
			h, err := stats.RestoreHistogram(st.VCHistLo, st.VCHistHi, rec.HistBins,
				rec.HistUnder, rec.HistOver, rec.HistTotal)
			if err != nil {
				return nil, fmt.Errorf("study: task %d histogram: %w", rec.Index, err)
			}
			results[i].Hist = h
		}
	}
	return st.outcomeFrom(p, results)
}
