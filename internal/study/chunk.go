package study

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"pnps/internal/scenario"
	"pnps/internal/sim"
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
// an outcome bit-identical to an unsharded Run. It keeps nothing; a
// worker that runs many chunks binds the study to a RunStore instead.
func (st Study) RunChunk(ctx context.Context, r TaskRange) (*Checkpoint, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	results, err := p.runChunk(ctx, r, nil)
	if err != nil {
		return nil, err
	}
	return p.checkpointFrom(results), nil
}

// runChunk checks chunk r against the ledger and runs its tasks,
// sharing cloud-free runs through sr's store when sr is non-nil.
func (p *plan) runChunk(ctx context.Context, r TaskRange, sr *StudyRuns) ([]TaskResult, error) {
	if r.Lo < 0 || r.Hi > p.total || r.Lo >= r.Hi {
		return nil, fmt.Errorf("study: chunk %v outside ledger [0,%d)", r, p.total)
	}
	return p.runRanges(ctx, sr, r)
}

// A run store keeps cells' cloud-free runs for the chunks that come
// after the one that simulated them. The grid and the cap bound what a
// store holds: forkGrid snapshots per kept run, about 2.8 KB each,
// fewer when a run has fewer discrete events than grid times, and at
// most maxKeptRuns kept runs, the least recently used evicted first.
const (
	forkGrid    = 16
	maxKeptRuns = 32
)

// RunStore shares cells' cloud-free runs across chunks, whichever
// study the chunks belong to. A cloud-free run depends on its cell,
// not on its seed, and at short durations most repetitions of a cell
// are cloud-free, so every chunk of the cell — in a coordinator
// worker's later leases or in a service's next study of the same
// matrix — would simulate it again. Instead, when a chunk's lead is
// cloud-free, the store keeps the lead's Result, dwell histogram and
// realisation and the snapshots sim.RunLead handed at forkGrid times
// spread over the run. In later chunks of the cell, a group whose
// realisation identity equals the kept one takes the kept run without
// simulating, and a group that agrees with it for a while (scenario.
// Realisation.SharedUntil) resumes from the latest grid snapshot at or
// before that time; every other group runs as Study.RunChunk runs it.
//
// Kept runs are keyed by the cell's seed-free key in a namespace
// (Bind's tenant; see runKeys), so a run never crosses namespaces, and
// they are matched on realisation identity, never on being cloud-free
// alone: a base profile that depends on the seed gives cloud-free
// realisations that differ. Checkpoints are bit-identical to
// Study.RunChunk's in any order of chunks and studies. A RunStore is
// safe for concurrent use.
type RunStore struct {
	mu                      sync.Mutex
	runs                    map[runKey]*list.Element // in lru
	lru                     *list.List               // of *keptRun, most recently used first
	hits, misses, evictions int64
}

// NewRunStore returns an empty store.
func NewRunStore() *RunStore {
	return &RunStore{runs: map[runKey]*list.Element{}, lru: list.New()}
}

// RunStoreStats is the observable state of a run store. Hits and
// Misses count a cell's lookups in one chunk that found a kept run and
// that found none; Kept is the number of runs held.
type RunStoreStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Kept      int   `json:"kept"`
	Evictions int64 `json:"evictions"`
}

// Stats snapshots the store's counters.
func (s *RunStore) Stats() RunStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RunStoreStats{Hits: s.hits, Misses: s.misses, Kept: len(s.runs), Evictions: s.evictions}
}

// StudyRuns is a study bound to a run store (RunStore.Bind): the
// study's plan, made once, and its cells' seed-free keys in the
// binding's namespace. A service does everything with one study
// through it — its fingerprint, its cells' cache keys, restoring and
// encoding cached cells, the folder — and runs the study's chunks
// through the store.
type StudyRuns struct {
	p      *plan
	store  *RunStore
	tenant string
	// The cells' keys are derived at the first call that needs one
	// (keyed), so a whole-study cache hit, which needs no cell, never
	// derives them.
	once    sync.Once
	keys    []runKey // by cell
	keysErr error
}

// Bind validates st and binds it to the store in tenant's namespace,
// planning the study once. The binding works on a copy of st: later
// changes to st do not reach it.
func (s *RunStore) Bind(st Study, tenant string) (*StudyRuns, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	return &StudyRuns{p: p, store: s, tenant: tenant}, nil
}

// keyed derives the cells' keys once.
func (sr *StudyRuns) keyed() error {
	sr.once.Do(func() { sr.keys, sr.keysErr = sr.p.runKeys(sr.tenant) })
	return sr.keysErr
}

// Fingerprint returns the bound study's identity.
func (sr *StudyRuns) Fingerprint() Fingerprint { return sr.p.fp.clone() }

// Cells returns the number of cells in the bound study's matrix.
func (sr *StudyRuns) Cells() int { return len(sr.p.cells) }

// NewFolder prepares a chunk folder of the bound study for the given
// chunk size.
func (sr *StudyRuns) NewFolder(chunkSize int) (*Folder, error) { return sr.p.newFolder(chunkSize) }

// RunChunk executes the contiguous ledger block [r.Lo, r.Hi) and
// returns its checkpoint, bit-identical to Study.RunChunk's.
func (sr *StudyRuns) RunChunk(ctx context.Context, r TaskRange) (*Checkpoint, error) {
	results, err := sr.runChunk(ctx, r)
	if err != nil {
		return nil, err
	}
	return sr.p.checkpointFrom(results), nil
}

// runChunk runs chunk r, sharing cloud-free runs through the store.
func (sr *StudyRuns) runChunk(ctx context.Context, r TaskRange) ([]TaskResult, error) {
	if err := sr.keyed(); err != nil {
		return nil, err
	}
	return sr.p.runChunk(ctx, r, sr)
}

// lookup returns the kept run of cell, nil when there is none or sr is
// nil, and marks it most recently used.
func (sr *StudyRuns) lookup(cell int) *keptRun {
	if sr == nil {
		return nil
	}
	s := sr.store
	s.mu.Lock()
	defer s.mu.Unlock()
	el := s.runs[sr.keys[cell]]
	if el == nil {
		s.misses++
		return nil
	}
	s.hits++
	s.lru.MoveToFront(el)
	return el.Value.(*keptRun)
}

// keep adds a finished kept run, evicting the least recently used
// beyond maxKeptRuns. A cell kept meanwhile by a concurrent chunk keeps
// its first run.
func (s *RunStore) keep(k *keptRun) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runs[k.key] != nil {
		return
	}
	if len(s.runs) == maxKeptRuns {
		old := s.lru.Remove(s.lru.Back()).(*keptRun)
		delete(s.runs, old.key)
		s.evictions++
	}
	s.runs[k.key] = s.lru.PushFront(k)
}

// keptRun is one cell's kept cloud-free run, fixed once a store holds
// it.
type keptRun struct {
	key  runKey // the cell's key in its store
	id   string // the realisation's identity
	real scenario.Realisation
	out  runOutput
	// snaps[i] is the lead's snapshot for fork time at[i], nil when the
	// run cannot fork.
	at    [forkGrid]float64
	snaps [forkGrid]*sim.Snapshot
}

// newKeptRun starts the kept run of a cell's cloud-free lead. A
// cloud-free realisation has an identity: pv.ClearUntil is +Inf only
// for a cloud overlay without events over a base that has one.
func newKeptRun(key runKey, r scenario.Realisation) *keptRun {
	id, _ := r.AppendIdentity(nil)
	return &keptRun{key: key, id: string(id), real: r}
}

// forkTimes sets the grid over a run of the given duration, forkGrid
// times evenly spaced inside it, and appends them to at.
func (k *keptRun) forkTimes(at []float64, duration float64) []float64 {
	for i := range k.at {
		k.at[i] = duration * float64(i+1) / (forkGrid + 1)
	}
	return append(at, k.at[:]...)
}

// serves reports whether the kept run serves group g, and prepares g
// if so: a group of the kept realisation takes the kept output, and a
// group that agrees with it up to a positive time resumes from the
// latest grid snapshot at or before that time (from scratch when the
// time precedes the grid). A nil k serves nothing.
func (k *keptRun) serves(g *groupRun) bool {
	if k == nil || g.real.err != nil {
		return false
	}
	var buf [64]byte
	if id, ok := g.real.r.AppendIdentity(buf[:0]); ok && string(id) == k.id {
		g.kept = &k.out
		return true
	}
	tc := k.real.SharedUntil(g.real.r)
	if !(tc > 0) {
		return false
	}
	for i := forkGrid - 1; i >= 0; i-- {
		if k.at[i] <= tc {
			g.snap = k.snaps[i]
			break
		}
	}
	return true
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
	p         *plan
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
	return p.newFolder(chunkSize)
}

func (p *plan) newFolder(chunkSize int) (*Folder, error) {
	if chunkSize < 1 {
		return nil, fmt.Errorf("study: chunk size %d invalid", chunkSize)
	}
	return &Folder{
		p: p, chunkSize: chunkSize,
		accum:   p.newOutcomeAccum(make([]TaskResult, 0, p.total)),
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
func (f *Folder) Fingerprint() Fingerprint { return f.p.fp.clone() }

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
	if !f.p.fp.Equal(cp.Fingerprint) {
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
