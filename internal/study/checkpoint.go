package study

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"pnps/internal/scenario"
	"pnps/internal/soc"
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
func (f Fingerprint) Equal(other Fingerprint) bool {
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

// clone returns a copy of f that shares no slice with it.
func (f Fingerprint) clone() Fingerprint {
	if f.Axes != nil {
		axes := make([]AxisDigest, len(f.Axes))
		for i, ax := range f.Axes {
			axes[i] = AxisDigest{Name: ax.Name, Levels: append([]string(nil), ax.Levels...)}
		}
		f.Axes = axes
	}
	return f
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
	return p.fp, nil
}

// checkFingerprint validates cp and checks that it belongs to the
// planned study.
func (p *plan) checkFingerprint(cp *Checkpoint) error {
	if err := cp.Validate(); err != nil {
		return err
	}
	if !p.fp.Equal(cp.Fingerprint) {
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
	Metrics RunMetrics `json:"metrics"`

	HistBins  []float64 `json:"hist_bins,omitempty"`
	HistUnder float64   `json:"hist_under,omitempty"`
	HistOver  float64   `json:"hist_over,omitempty"`
	HistTotal float64   `json:"hist_total,omitempty"`
}

// Checkpoint is the serialisable state of a partially (or fully)
// executed study: the per-task records of the ledger tasks done so far,
// enough to finish the aggregation later, elsewhere, or both. Shards
// and chunks produce checkpoints; MergeCheckpoints unions them;
// Study.Resume fills the gaps; Study.Outcome folds a complete
// checkpoint into a StudyOutcome bit-identical to an unsharded run's.
//
// Checkpoints travel across trust boundaries (files, the coordinator's
// HTTP submissions), so none of their invariants are assumed: every
// consumer re-validates record order, uniqueness, index bounds and
// histogram consistency via Validate. Which tasks are done is read off
// the validated records, never stored beside them.
type Checkpoint struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	// Total is the full ledger size (cells × reps).
	Total int `json:"total_tasks"`
	// Records holds one entry per completed task, sorted by index.
	Records []TaskRecord `json:"records"`
}

// checkpointFrom cuts a checkpoint from executed task results, which
// arrive in ledger order.
func (p *plan) checkpointFrom(results []TaskResult) *Checkpoint {
	cp := &Checkpoint{
		Fingerprint: p.fp.clone(),
		Total:       p.total,
		Records:     make([]TaskRecord, len(results)),
	}
	for i, r := range results {
		rec := TaskRecord{
			Index: r.Task.Index, Seed: r.Task.Seed, Metrics: r.Metrics,
		}
		if h := r.Hist; h != nil {
			rec.HistBins = append([]float64(nil), h.Bins...)
			rec.HistUnder = h.Underflow()
			rec.HistOver = h.Overflow()
			rec.HistTotal = h.Total()
		}
		cp.Records[i] = rec
	}
	return cp
}

// Complete reports whether the checkpoint is valid and holds a record
// for every ledger task. Validation makes the record count decisive: a
// valid checkpoint's indices are unique and inside [0, Total), so Total
// of them cover the ledger, while duplicate indices padding the count
// fail validation.
func (cp *Checkpoint) Complete() bool {
	return cp.Validate() == nil && len(cp.Records) == cp.Total
}

// covers reports whether a valid checkpoint holds exactly the tasks of
// the non-empty range r: sorted unique records, as many as r spans,
// from r.Lo to r.Hi-1.
func (cp *Checkpoint) covers(r TaskRange) bool {
	n := len(cp.Records)
	return n > 0 && n == r.Hi-r.Lo && cp.Records[0].Index == r.Lo && cp.Records[n-1].Index == r.Hi-1
}

// coverage describes the tasks a checkpoint holds, for diagnostics.
func (cp *Checkpoint) coverage() string {
	if len(cp.Records) == 0 {
		return "no tasks"
	}
	return fmt.Sprintf("%d tasks in [%d,%d]", len(cp.Records), cp.Records[0].Index, cp.Records[len(cp.Records)-1].Index)
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
// boundary (ReadCheckpoint, MergeCheckpoints, Resume, Outcome, the
// coordinator's submission handler) re-validates rather than trusting
// its input.
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

// Missing returns the ledger ranges a valid checkpoint has no records
// for, sorted.
func (cp *Checkpoint) Missing() []TaskRange {
	var missing []TaskRange
	next := 0
	for _, rec := range cp.Records {
		if rec.Index > next {
			missing = append(missing, TaskRange{Lo: next, Hi: rec.Index})
		}
		next = rec.Index + 1
	}
	if next < cp.Total {
		missing = append(missing, TaskRange{Lo: next, Hi: cp.Total})
	}
	return missing
}

// MergeCheckpoints unions checkpoints of one study — shards, chunks, a
// partial checkpoint and its resumed remainder — into one. Every input
// is validated first (checkpoints cross trust boundaries), and their
// task sets must be disjoint: the ledger runs every task exactly once,
// so an overlap means two pieces were mis-split and is an error, not a
// tie-break. None of the inputs are mutated, and the result shares no
// backing arrays with them — records are deep-copied on the way in.
func MergeCheckpoints(cps ...*Checkpoint) (*Checkpoint, error) {
	if len(cps) == 0 {
		return nil, fmt.Errorf("study: nothing to merge")
	}
	out := &Checkpoint{Fingerprint: cps[0].Fingerprint, Total: cps[0].Total}
	for _, cp := range cps {
		if err := cp.Validate(); err != nil {
			return nil, err
		}
		if !out.Fingerprint.Equal(cp.Fingerprint) {
			return nil, fmt.Errorf("study: merge of checkpoints from different studies")
		}
		if cp.Total != out.Total {
			return nil, fmt.Errorf("study: merge of checkpoints with ledger sizes %d vs %d", out.Total, cp.Total)
		}
		for _, rec := range cp.Records {
			rec.HistBins = append([]float64(nil), rec.HistBins...)
			out.Records = append(out.Records, rec)
		}
	}
	sort.SliceStable(out.Records, func(i, j int) bool { return out.Records[i].Index < out.Records[j].Index })
	for i := 1; i < len(out.Records); i++ {
		if out.Records[i].Index == out.Records[i-1].Index {
			return nil, fmt.Errorf("study: merge overlap at task %d — shards must partition the ledger", out.Records[i].Index)
		}
	}
	// Valid inputs sorted together and free of overlaps form a valid
	// checkpoint: nothing else about a record depends on its neighbours.
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
// incomplete checkpoint errors with the missing ranges. The records
// fold through the accumulator the chunk Folder uses, so the outcome is
// bit-identical to an unsharded Run of the same study (its Results
// carry metrics but no *sim.Result — the simulations happened
// elsewhere).
func (st Study) Outcome(cp *Checkpoint) (*StudyOutcome, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if err := p.checkFingerprint(cp); err != nil {
		return nil, err
	}
	if len(cp.Records) != cp.Total {
		return nil, fmt.Errorf("study: checkpoint incomplete — missing task ranges %v", cp.Missing())
	}
	a := p.newOutcomeAccum(make([]TaskResult, 0, p.total))
	if err := a.addRecords(cp.Records); err != nil {
		return nil, err
	}
	return a.outcome()
}
