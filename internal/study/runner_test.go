package study

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"pnps/internal/pv"
	"pnps/internal/scenario"
	"pnps/internal/sim"
)

// stressMatrix is the repository benchmark's study: stress-clouds on
// three storage families × two loads, 64-bin dwell histograms on
// [4, 6] V.
func stressMatrix(duration float64, reps int, seed int64, workers int) Study {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = duration
	return Study{
		Name: "stress", Base: base, Reps: reps, Seed: seed, Workers: workers,
		Axes: []Axis{
			NewAxis("storage", idealLevel(), supercapLevel(), hybridLevel()),
			NewAxis("load", Utilisation(1), Utilisation(0.5)),
		},
		VCHistBins: 64, VCHistLo: 4, VCHistHi: 6,
	}
}

// runnerStats counts what a store's chunks did: the distinct
// simulations behind their tasks, the tasks that took a Result an
// earlier chunk simulated, and the simulations resumed past t = 0.
type runnerStats struct {
	seen          map[*sim.Result]bool
	sims, reused  int
	forks, shared float64
}

func (s *runnerStats) add(results []TaskResult) {
	if s.seen == nil {
		s.seen = map[*sim.Result]bool{}
	}
	fresh := map[*sim.Result]bool{}
	for _, r := range results {
		switch {
		case fresh[r.Result]:
		case s.seen[r.Result]:
			s.reused++
		default:
			fresh[r.Result] = true
			s.sims++
			if r.Result.SharedPrefixSeconds > 0 {
				s.forks++
				s.shared += r.Result.SharedPrefixSeconds
			}
		}
	}
	for res := range fresh {
		s.seen[res] = true
	}
}

// runAllChunks runs every chunk of the given size through one store
// in the given order and folds the checkpoints; it returns the outcome
// bytes and the results of every chunk, by chunk.
func runAllChunks(t *testing.T, st Study, size int, order []int) ([]byte, [][]TaskResult) {
	t.Helper()
	sr := bindStore(t, NewRunStore(), st, "")
	folder, err := st.NewFolder(size)
	if err != nil {
		t.Fatal(err)
	}
	byChunk := make([][]TaskResult, folder.NumChunks())
	for _, i := range order {
		results, err := sr.runChunk(context.Background(), folder.Range(i))
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		byChunk[i] = results
		if err := folder.Fold(i, sr.p.checkpointFrom(results)); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	return outcomeBytes(t, "chunk fold")(folder.Outcome()), byChunk
}

func bindStore(t testing.TB, s *RunStore, st Study, tenant string) *StudyRuns {
	t.Helper()
	sr, err := s.Bind(st, tenant)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestRunStoreMatchesIndependentRuns runs the stress matrix's chunks
// through one store, forwards and backwards, at one worker and at
// three. Every task must equal its independent run, the folded outcome
// must equal Study.Run's bytes, and later chunks must have taken kept
// runs and resumed from kept snapshots.
func TestRunStoreMatchesIndependentRuns(t *testing.T) {
	for _, workers := range []int{1, 3} {
		st := stressMatrix(10, 12, 5, workers)
		want := outcomeBytes(t, "Run")(st.Run(context.Background()))
		for _, size := range []int{1, 4, 7} {
			n := (6*st.Reps + size - 1) / size
			for _, order := range [][]int{forward(n), reverse(n)} {
				label := fmt.Sprintf("workers=%d size=%d order=%v", workers, size, order[:2])
				got, byChunk := runAllChunks(t, st, size, order)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: outcome differs from Study.Run", label)
				}
				var stats runnerStats
				for _, i := range order {
					requireIndependentRuns(t, label, st, byChunk[i])
					stats.add(byChunk[i])
				}
				if stats.reused == 0 || stats.forks == 0 {
					t.Fatalf("%s: %d tasks took a kept run and %v simulations resumed; want both", label, stats.reused, stats.forks)
				}
			}
		}
	}
}

// TestRunStoreMatchesIdentityNotClearSky gives a cell a base
// irradiance that depends on the seed, so its cloud-free realisations
// differ. The store keeps the first chunk's cloud-free run, and a
// later task of the other base must not take it: it runs on its own,
// and only the tasks of the kept base share the kept Result.
func TestRunStoreMatchesIdentityNotClearSky(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 2
	base.Profile = func(seed int64, span float64) pv.Profile {
		return pv.NewClouds(pv.Constant(900+100*float64(seed&1)), pv.CloudParams{}, seed)
	}
	st := Study{Name: "bases", Base: base, Reps: 6, Seed: 3, SeedMode: SeedPerRep, Workers: 1}
	want := outcomeBytes(t, "Run")(st.Run(context.Background()))
	got, byChunk := runAllChunks(t, st, 1, forward(6))
	if !bytes.Equal(got, want) {
		t.Fatal("outcome differs from Study.Run")
	}
	kept := byChunk[0][0]
	var sameBase, otherBase int
	for _, c := range byChunk[1:] {
		r := c[0]
		requireIndependentRuns(t, fmt.Sprintf("task %d", r.Task.Index), st, c)
		same := r.Task.Seed&1 == kept.Task.Seed&1
		if same != (r.Result == kept.Result) {
			t.Fatalf("task %d (seed parity %d, kept %d) shares the kept Result: %v",
				r.Task.Index, r.Task.Seed&1, kept.Task.Seed&1, r.Result == kept.Result)
		}
		if same {
			sameBase++
		} else {
			otherBase++
		}
	}
	if sameBase == 0 || otherBase == 0 {
		t.Fatalf("%d later tasks of the kept base and %d of the other: the test needs both", sameBase, otherBase)
	}
}

// TestRunStoreSharesAcrossStudies runs the chunks of two studies
// through one store, interleaved, the first study's forwards and the
// second's backwards. The studies differ in seed, seed
// mode, repetitions, chunk size and workers, and the second has an
// extra load level. Every chunk's checkpoint must equal
// Study.RunChunk's bytes, and tasks of each study must have taken runs
// the other study's chunks kept. The same matrix bound in another
// tenant's namespace finds nothing.
func TestRunStoreSharesAcrossStudies(t *testing.T) {
	ctx := context.Background()
	a := stressMatrix(4, 6, 5, 1)
	b := stressMatrix(4, 4, 11, 2)
	b.SeedMode = SeedPerRep
	b.Axes[1].Levels = append(b.Axes[1].Levels, Utilisation(0.3))
	store := NewRunStore()
	sts := []Study{a, b}
	runs := []*StudyRuns{bindStore(t, store, a, ""), bindStore(t, store, b, "")}
	var chunks [2][]TaskRange
	for k, size := range []int{4, 3} {
		var err error
		if chunks[k], err = sts[k].Chunks(size); err != nil {
			t.Fatal(err)
		}
	}
	producer := map[*sim.Result]int{}
	var cross [2]int
	for i := 0; i < max(len(chunks[0]), len(chunks[1])); i++ {
		for k, sr := range runs {
			if i >= len(chunks[k]) {
				continue
			}
			r := chunks[k][i]
			if k == 1 {
				r = chunks[k][len(chunks[k])-1-i] // from the other end of the matrix
			}
			results, err := sr.runChunk(ctx, r)
			if err != nil {
				t.Fatalf("study %d chunk %v: %v", k, r, err)
			}
			want, err := sts[k].RunChunk(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeBinary(sr.p.checkpointFrom(results)), encodeBinary(want)) {
				t.Fatalf("study %d chunk %v: checkpoint differs from Study.RunChunk's", k, r)
			}
			for _, res := range results {
				if by, ok := producer[res.Result]; !ok {
					producer[res.Result] = k
				} else if by != k {
					cross[k]++
				}
			}
		}
	}
	if cross[0] == 0 || cross[1] == 0 || store.Stats().Hits == 0 {
		t.Fatalf("tasks that took the other study's kept run: %v; store %+v", cross, store.Stats())
	}
	before := store.Stats()
	other := bindStore(t, store, a, "other")
	if _, err := other.RunChunk(ctx, chunks[0][0]); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats(); got.Hits != before.Hits || got.Misses == before.Misses {
		t.Fatalf("another tenant's chunk: store %+v, before %+v; want misses only", got, before)
	}
}

// TestRunStoreConcurrentChunks runs the chunks of two studies of one
// matrix through one store from four goroutines at once, two per
// binding, each chunk on two workers, so the race detector sees kept
// runs, snapshots and a binding's cell keys shared between chunks in
// flight.
func TestRunStoreConcurrentChunks(t *testing.T) {
	const size = 3
	store := NewRunStore()
	sts := []Study{stressMatrix(4, 8, 9, 2), stressMatrix(4, 8, 10, 2)}
	folders := make([]*Folder, len(sts))
	cps := make([][]*Checkpoint, len(sts))
	errs := make([][]error, len(sts))
	var wg sync.WaitGroup
	for g, st := range sts {
		var err error
		if folders[g], err = st.NewFolder(size); err != nil {
			t.Fatal(err)
		}
		cps[g] = make([]*Checkpoint, folders[g].NumChunks())
		errs[g] = make([]error, len(cps[g]))
		sr := bindStore(t, store, st, "")
		for h := 0; h < 2; h++ {
			wg.Add(1)
			go func(g, h int) {
				defer wg.Done()
				for i := h; i < len(cps[g]); i += 2 {
					cps[g][i], errs[g][i] = sr.RunChunk(context.Background(), folders[g].Range(i))
				}
			}(g, h)
		}
	}
	wg.Wait()
	for g, st := range sts {
		for i, cp := range cps[g] {
			if errs[g][i] != nil {
				t.Fatalf("study %d chunk %d: %v", g, i, errs[g][i])
			}
			if err := folders[g].Fold(i, cp); err != nil {
				t.Fatalf("study %d chunk %d: %v", g, i, err)
			}
		}
		want := outcomeBytes(t, "Run")(st.Run(context.Background()))
		if got := outcomeBytes(t, "fold")(folders[g].Outcome()); !bytes.Equal(got, want) {
			t.Fatalf("study %d: outcome differs from Study.Run", g)
		}
	}
}

// recency lists the cells a store keeps, least recently used first,
// by their keys in sr.
func recency(t *testing.T, s *RunStore, sr *StudyRuns) []int {
	t.Helper()
	cell := map[runKey]int{}
	for c, k := range sr.keys {
		cell[k] = c
	}
	var out []int
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		c, ok := cell[el.Value.(*keptRun).key]
		if !ok {
			t.Fatal("store keeps a run of no cell of the study")
		}
		out = append(out, c)
	}
	return out
}

// TestRunStoreBoundsKeptRuns runs one chunk of each cell of a study
// with more cells than a store keeps, after using the first cell again
// once the store is full: the store holds maxKeptRuns runs, and the
// ones it evicts are the least recently used.
func TestRunStoreBoundsKeptRuns(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 0.5
	n := maxKeptRuns + 3
	var loads []Level
	for i := 0; i < n; i++ {
		loads = append(loads, Utilisation(0.2+0.8*float64(i+1)/float64(n)))
	}
	st := Study{
		Name: "cap", Base: base, Reps: 2, Seed: 1, SeedMode: SeedPerRep, Workers: 1,
		Axes: []Axis{NewAxis("load", loads...)},
	}
	store := NewRunStore()
	sr := bindStore(t, store, st, "")
	run := func(task int) {
		if _, err := sr.RunChunk(context.Background(), TaskRange{Lo: task, Hi: task + 1}); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < maxKeptRuns; c++ {
		run(2 * c)
	}
	run(1) // cell 0's other repetition: cell 0 becomes the most recently used
	for c := maxKeptRuns; c < n; c++ {
		run(2 * c)
	}
	if len(store.runs) != maxKeptRuns {
		t.Fatalf("store keeps %d runs, want %d", len(store.runs), maxKeptRuns)
	}
	want := forward(n)[4:maxKeptRuns]
	want = append(append(want, 0), forward(n)[maxKeptRuns:]...)
	got := recency(t, store, sr)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("kept cells, least recently used first: %v, want %v", got, want)
	}
	if s := store.Stats(); s.Kept != maxKeptRuns || s.Evictions != int64(n-maxKeptRuns) || s.Hits != 1 {
		t.Fatalf("store stats %+v: want %d kept, %d evictions, 1 hit", s, maxKeptRuns, n-maxKeptRuns)
	}
}

// FuzzRunStore leases the chunks of two fuzzed studies of one
// duration and histogram geometry to one store, interleaved in a
// fuzzed order, with re-leases and chunks out of order: each byte of
// leases picks a study (its low bit) and one of its chunks, and chunks
// it never picks run at the end. The studies draw their cells, seed
// mode, seed, repetitions and chunk size (1 to Reps+1) independently,
// so their cells' keys agree where their load levels do. A re-leased
// chunk's checkpoint must equal its first one's bytes, and each
// study's folded outcome must equal its Study.Run's.
func FuzzRunStore(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(3), uint8(2), uint8(4), uint8(0), uint8(1), true, int64(2), int64(5), uint8(3), uint8(1), []byte{3, 1, 6, 0, 2}, uint8(0))
	f.Add(uint8(1), uint8(2), uint8(3), uint8(3), uint8(4), uint8(1), uint8(1), true, int64(17), int64(17), uint8(0), uint8(2), []byte{7, 6, 5, 4, 3, 2, 1, 0, 6}, uint8(2))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(0), uint8(3), uint8(0), uint8(2), false, int64(4), int64(-9), uint8(1), uint8(4), []byte{}, uint8(1))
	f.Add(uint8(0), uint8(0), uint8(3), uint8(1), uint8(4), uint8(2), uint8(0), true, int64(-3), int64(8), uint8(4), uint8(0), []byte{1, 1, 0}, uint8(5))
	f.Fuzz(func(t *testing.T, cellsA, cellsB, repsA, repsB, dur, modeA, modeB uint8, hist bool,
		seedA, seedB int64, chunkA, chunkB uint8, leases []byte, workers uint8) {
		ctx := context.Background()
		sts := [2]Study{
			splitStudy(cellsA, repsA, dur, modeA, hist, seedA),
			splitStudy(cellsB, repsB, dur, modeB, hist, seedB),
		}
		store := NewRunStore()
		var (
			want    [2][]byte
			folders [2]*Folder
			runs    [2]*StudyRuns
			first   [2][][]byte
		)
		for k, chunk := range []uint8{chunkA, chunkB} {
			sts[k].Workers = 1 + int(workers>>k)%3
			want[k] = outcomeBytes(t, "Run")(sts[k].Run(ctx))
			var err error
			if folders[k], err = sts[k].NewFolder(1 + int(chunk)%(sts[k].Reps+1)); err != nil {
				t.Fatal(err)
			}
			runs[k] = bindStore(t, store, sts[k], "")
			first[k] = make([][]byte, folders[k].NumChunks())
		}
		type lease struct{ k, i int }
		var order []lease
		for _, b := range leases {
			k := int(b & 1)
			order = append(order, lease{k, int(b>>1) % folders[k].NumChunks()})
		}
		for i := 0; i < max(folders[0].NumChunks(), folders[1].NumChunks()); i++ {
			for k := range folders {
				if i < folders[k].NumChunks() {
					order = append(order, lease{k, i})
				}
			}
		}
		for _, l := range order {
			cp, err := runs[l.k].RunChunk(ctx, folders[l.k].Range(l.i))
			if err != nil {
				t.Fatalf("study %d chunk %d: %v", l.k, l.i, err)
			}
			raw := encodeBinary(cp)
			if first[l.k][l.i] != nil {
				if !bytes.Equal(raw, first[l.k][l.i]) {
					t.Fatalf("re-leased chunk %d of study %d: checkpoint differs from its first run", l.i, l.k)
				}
				continue
			}
			first[l.k][l.i] = raw
			if err := folders[l.k].Fold(l.i, cp); err != nil {
				t.Fatalf("study %d chunk %d: %v", l.k, l.i, err)
			}
		}
		for k := range folders {
			if got := outcomeBytes(t, "chunk fold")(folders[k].Outcome()); !bytes.Equal(got, want[k]) {
				t.Fatalf("study %d: store outcome differs from Study.Run:\n%s\nvs\n%s", k, got, want[k])
			}
		}
	})
}
