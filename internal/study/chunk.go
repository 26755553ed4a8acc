package study

import (
	"context"
	"fmt"
)

// Chunked execution: the distributed-coordination unit of a study.
//
// A chunk is a fixed-size contiguous block of the task ledger —
// chunk i of size s covers tasks [i·s, min((i+1)·s, total)). Contiguity
// is what makes chunks pre-mergeable: because study aggregation replays
// the ledger strictly in canonical task order, a Folder can fold chunk
// checkpoints into the outcome accumulators the moment the in-order
// frontier reaches them and drop their per-task histogram state
// immediately, instead of holding every task's histogram until the
// whole study lands. A 10^6-task × many-bin-histogram study therefore
// costs the coordinator O(outstanding chunks × chunk size) histogram
// memory, not O(total tasks) — while staying bit-identical to an
// unsharded Run, because the fold runs through the exact accumulator
// Run itself uses.

// chunkCount returns the number of fixed-size chunks covering a ledger.
func chunkCount(total, size int) int { return (total + size - 1) / size }

// ChunkRange returns chunk i's half-open task range of a total-task
// ledger cut into size-task blocks (the last chunk may be short).
func ChunkRange(total, size, i int) TaskRange {
	lo := i * size
	hi := lo + size
	if hi > total {
		hi = total
	}
	return TaskRange{Lo: lo, Hi: hi}
}

// Chunks validates the study and returns its ledger cut into fixed-size
// contiguous blocks — the unit the coordinator leases to workers.
func (st Study) Chunks(size int) ([]TaskRange, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if size < 1 {
		return nil, fmt.Errorf("study: chunk size %d invalid", size)
	}
	out := make([]TaskRange, chunkCount(p.total, size))
	for i := range out {
		out[i] = ChunkRange(p.total, size, i)
	}
	return out, nil
}

// RunChunk executes the contiguous ledger block [r.Lo, r.Hi) and
// returns its checkpoint — the worker-side unit of coordinated
// execution. Like a shard's, the checkpoint merges and folds back into
// an outcome bit-identical to an unsharded Run.
func (st Study) RunChunk(ctx context.Context, r TaskRange) (*Checkpoint, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if r.Lo < 0 || r.Hi > p.total || r.Lo >= r.Hi {
		return nil, fmt.Errorf("study: chunk %v outside ledger [0,%d)", r, p.total)
	}
	results, err := st.runRanges(ctx, p, r)
	if err != nil {
		return nil, err
	}
	return st.checkpointFrom(p, results), nil
}

// Folder streams chunk checkpoints into a study outcome. Chunks may
// arrive in any order — workers finish when they finish — but they are
// folded into the aggregation accumulators strictly at the in-order
// frontier: a landed chunk beyond the frontier is buffered, and the
// moment the frontier chunk arrives, it and every buffered successor
// are folded and their per-task histogram state is released. The
// resulting outcome is bit-identical to Study.Run because folding runs
// through the same ledger-order accumulator.
//
// Every folded checkpoint is validated first (Checkpoint.Validate,
// fingerprint equality, exact chunk coverage) — validation happens
// before the accumulators are touched, so a rejected submission leaves
// the folder unharmed. Folder is not safe for concurrent use; the
// coordinator serialises access.
type Folder struct {
	st        Study
	p         *plan
	fp        Fingerprint
	chunkSize int

	accum   *outcomeAccum
	pending map[int]*Checkpoint // landed chunks beyond the in-order frontier
	next    int                 // next chunk index to fold
	err     error               // sticky post-validation failure: the accumulators are suspect
}

// NewFolder validates the study and prepares a chunk folder for the
// given chunk size.
func (st Study) NewFolder(chunkSize int) (*Folder, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if chunkSize < 1 {
		return nil, fmt.Errorf("study: chunk size %d invalid", chunkSize)
	}
	return &Folder{
		st: st, p: p, fp: st.fingerprint(p), chunkSize: chunkSize,
		accum:   st.newOutcomeAccum(p, make([]TaskResult, 0, p.total)),
		pending: map[int]*Checkpoint{},
	}, nil
}

// NumChunks returns the number of chunks in the ledger.
func (f *Folder) NumChunks() int { return chunkCount(f.p.total, f.chunkSize) }

// TotalTasks returns the ledger size.
func (f *Folder) TotalTasks() int { return f.p.total }

// FoldedTasks returns the number of tasks folded into the aggregate so
// far (tasks in buffered out-of-order chunks are not yet counted).
func (f *Folder) FoldedTasks() int { return f.accum.folded() }

// Fingerprint returns the study identity every folded checkpoint must
// carry.
func (f *Folder) Fingerprint() Fingerprint { return f.fp }

// Range returns chunk i's task range.
func (f *Folder) Range(i int) TaskRange { return ChunkRange(f.p.total, f.chunkSize, i) }

// Complete reports whether every chunk has been folded.
func (f *Folder) Complete() bool { return f.next == f.NumChunks() && f.err == nil }

// Fold accepts chunk i's checkpoint. The checkpoint must validate, must
// carry the folder's study fingerprint, and must cover exactly chunk
// i's task range; anything else is rejected with a diagnostic error and
// no state change. Folding the same chunk twice is an error — the
// coordinator's lease protocol makes duplicates a bug, not a race.
func (f *Folder) Fold(i int, cp *Checkpoint) error {
	if f.err != nil {
		return fmt.Errorf("study: folder failed earlier: %w", f.err)
	}
	if i < 0 || i >= f.NumChunks() {
		return fmt.Errorf("study: chunk %d outside [0,%d)", i, f.NumChunks())
	}
	if _, dup := f.pending[i]; dup || i < f.next {
		return fmt.Errorf("study: chunk %d already folded", i)
	}
	if err := cp.Validate(); err != nil {
		return err
	}
	if !f.fp.equal(cp.Fingerprint) {
		return fmt.Errorf("study: chunk %d checkpoint belongs to a different study (fingerprint mismatch)", i)
	}
	if cp.Total != f.p.total {
		return fmt.Errorf("study: chunk %d checkpoint ledger size %d, study has %d tasks", i, cp.Total, f.p.total)
	}
	if r := f.Range(i); !cp.covers(r) {
		return fmt.Errorf("study: chunk %d checkpoint covers %s, want exactly %v", i, cp.coverage(), r)
	}
	f.pending[i] = cp
	for {
		next, ok := f.pending[f.next]
		if !ok {
			return nil
		}
		delete(f.pending, f.next)
		if err := f.accum.addRecords(next.Records); err != nil {
			// Validation above makes this unreachable for hostile input;
			// if it ever fires the accumulators are part-updated, so the
			// folder refuses all further work.
			f.err = err
			return err
		}
		f.next++
	}
}

// Missing returns the chunk indices not yet folded or buffered.
func (f *Folder) Missing() []int {
	var out []int
	for i := f.next; i < f.NumChunks(); i++ {
		if _, ok := f.pending[i]; !ok {
			out = append(out, i)
		}
	}
	return out
}

// Marginals snapshots the live per-axis marginal summaries over the
// tasks folded so far — what the coordinator streams as chunks land.
func (f *Folder) Marginals() []Marginal { return f.accum.marginals() }

// Outcome finalises a complete folder into the study outcome,
// bit-identical to an unsharded Study.Run.
func (f *Folder) Outcome() (*StudyOutcome, error) {
	if f.err != nil {
		return nil, fmt.Errorf("study: folder failed earlier: %w", f.err)
	}
	if !f.Complete() {
		return nil, fmt.Errorf("study: fold incomplete — %d of %d tasks folded, missing chunks %v",
			f.FoldedTasks(), f.p.total, f.Missing())
	}
	return f.accum.outcome()
}
