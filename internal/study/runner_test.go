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

// runnerStats counts what a runner's chunks did: the distinct
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

// runAllChunks runs every chunk of the given size through one runner
// in the given order and folds the checkpoints; it returns the outcome
// bytes and the results of every chunk, by chunk.
func runAllChunks(t *testing.T, st Study, size int, order []int) ([]byte, [][]TaskResult) {
	t.Helper()
	kr := st.NewChunkRunner()
	folder, err := st.NewFolder(size)
	if err != nil {
		t.Fatal(err)
	}
	byChunk := make([][]TaskResult, folder.NumChunks())
	for _, i := range order {
		p, results, err := kr.st.runChunk(context.Background(), folder.Range(i), kr)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		byChunk[i] = results
		if err := folder.Fold(i, st.checkpointFrom(p, results)); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	return outcomeBytes(t, "chunk fold")(folder.Outcome()), byChunk
}

// TestChunkRunnerMatchesIndependentRuns runs the stress matrix's chunks
// through one runner, forwards and backwards, at one worker and at
// three. Every task must equal its independent run, the folded outcome
// must equal Study.Run's bytes, and later chunks must have taken kept
// runs and resumed from kept snapshots.
func TestChunkRunnerMatchesIndependentRuns(t *testing.T) {
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

// TestChunkRunnerMatchesIdentityNotClearSky gives a cell a base
// irradiance that depends on the seed, so its cloud-free realisations
// differ. The runner keeps the first chunk's cloud-free run, and a
// later task of the other base must not take it: it runs on its own,
// and only the tasks of the kept base share the kept Result.
func TestChunkRunnerMatchesIdentityNotClearSky(t *testing.T) {
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

// TestChunkRunnerConcurrentChunks runs a runner's chunks from two
// goroutines at once, each chunk on two workers, so the race detector
// sees kept runs and snapshots shared between chunks in flight.
func TestChunkRunnerConcurrentChunks(t *testing.T) {
	st := stressMatrix(4, 8, 9, 2)
	want := outcomeBytes(t, "Run")(st.Run(context.Background()))
	const size = 3
	kr := st.NewChunkRunner()
	folder, err := st.NewFolder(size)
	if err != nil {
		t.Fatal(err)
	}
	cps := make([]*Checkpoint, folder.NumChunks())
	errs := make([]error, len(cps))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(cps); i += 2 {
				cps[i], errs[i] = kr.RunChunk(context.Background(), folder.Range(i))
			}
		}(g)
	}
	wg.Wait()
	for i, cp := range cps {
		if errs[i] != nil {
			t.Fatalf("chunk %d: %v", i, errs[i])
		}
		if err := folder.Fold(i, cp); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if got := outcomeBytes(t, "fold")(folder.Outcome()); !bytes.Equal(got, want) {
		t.Fatal("outcome differs from Study.Run")
	}
}

// TestChunkRunnerBoundsKeptCells runs one chunk of each cell of a study
// with more cells than a runner keeps: the runner holds maxKeptCells
// runs, the latest ones.
func TestChunkRunnerBoundsKeptCells(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 0.5
	var loads []Level
	for i := 0; i < maxKeptCells+3; i++ {
		loads = append(loads, Utilisation(0.4+0.05*float64(i)))
	}
	st := Study{Name: "cap", Base: base, Reps: 2, Seed: 1, Workers: 1, Axes: []Axis{NewAxis("load", loads...)}}
	kr := st.NewChunkRunner()
	for c := range loads {
		if _, err := kr.RunChunk(context.Background(), TaskRange{Lo: 2 * c, Hi: 2*c + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if len(kr.runs) != maxKeptCells {
		t.Fatalf("runner keeps %d runs, want %d", len(kr.runs), maxKeptCells)
	}
	for i, k := range kr.runs {
		if want := len(loads) - maxKeptCells + i; k.cell != want {
			t.Fatalf("kept run %d is cell %d, want %d", i, k.cell, want)
		}
	}
}

// FuzzChunkRunner leases a study's chunks to one runner in a fuzzed
// order, with re-leases and chunks out of order: each byte of leases
// picks the next chunk, and chunks it never picks run at the end.
// Chunk size runs from 1 to Reps+1 and workers from 1 to 3. A re-leased
// chunk's checkpoint must equal its first one's bytes, and the folded
// outcome must equal Study.Run's.
func FuzzChunkRunner(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), uint8(0), true, int64(2), uint8(3), []byte{3, 1, 3, 0, 2}, uint8(0))
	f.Add(uint8(1), uint8(3), uint8(4), uint8(1), true, int64(17), uint8(0), []byte{7, 6, 5, 4, 3, 2, 1, 0, 6}, uint8(2))
	f.Add(uint8(2), uint8(2), uint8(3), uint8(0), false, int64(4), uint8(1), []byte{}, uint8(1))
	f.Add(uint8(0), uint8(3), uint8(4), uint8(2), true, int64(-3), uint8(4), []byte{1, 1, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, cells, reps, dur, mode uint8, hist bool, seed int64,
		chunk uint8, leases []byte, workers uint8) {
		st := splitStudy(cells, reps, dur, mode, hist, seed)
		st.Workers = 1 + int(workers%3)
		ctx := context.Background()
		want := outcomeBytes(t, "Run")(st.Run(ctx))
		size := 1 + int(chunk)%(st.Reps+1)
		folder, err := st.NewFolder(size)
		if err != nil {
			t.Fatal(err)
		}
		n := folder.NumChunks()
		order := make([]int, 0, len(leases)+n)
		for _, b := range leases {
			order = append(order, int(b)%n)
		}
		order = append(order, forward(n)...)
		kr := st.NewChunkRunner()
		first := make([][]byte, n)
		for _, i := range order {
			cp, err := kr.RunChunk(ctx, folder.Range(i))
			if err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
			raw := encodeBinary(cp)
			if first[i] != nil {
				if !bytes.Equal(raw, first[i]) {
					t.Fatalf("re-leased chunk %d checkpoint differs from its first run", i)
				}
				continue
			}
			first[i] = raw
			if err := folder.Fold(i, cp); err != nil {
				t.Fatalf("chunk %d of size %d: %v", i, size, err)
			}
		}
		if got := outcomeBytes(t, "chunk fold")(folder.Outcome()); !bytes.Equal(got, want) {
			t.Fatalf("chunk runner outcome differs from Study.Run:\n%s\nvs\n%s", got, want)
		}
	})
}
