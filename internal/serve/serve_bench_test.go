package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"testing"
	"time"

	"pnps/internal/studycli"
)

// benchRecipe is deliberately small: the miss path's cost is dominated
// by simulation, and the benchmark's point is the miss/hit ratio — a
// hit must cost HTTP + store lookup, not engine time.
func benchRecipe(seed int64) studycli.Config {
	return studycli.Config{
		Scenario: "stress-clouds", Duration: 2,
		Storage: "ideal:0.047", Reps: 1, Seed: seed,
	}
}

func benchSubmitWait(b *testing.B, e *env, recipe studycli.Config) JobStatus {
	b.Helper()
	resp, data := e.do(b, http.MethodPost, "/v1/jobs", "", recipe)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		b.Fatalf("submit: HTTP %d (%s)", resp.StatusCode, data)
	}
	var js JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := e.s.WaitJob(ctx, js.ID)
	if err != nil {
		b.Fatal(err)
	}
	if final.State != JobDone {
		b.Fatalf("job %s: %s (%s)", js.ID, final.State, final.Error)
	}
	e.outcome(b, "", js.ID, FormatJSON)
	return final
}

// BenchmarkServeCache measures the full service path — submit over
// HTTP, wait, fetch the JSON outcome — cold (every submission a new
// study of a cell the server has never run, simulated), with a fresh
// seed (a new study of a known cell: its cloud-free runs come from the
// run store), partial (a new study of three cells, two of them
// restored from the cell cache), and hot (the same study resubmitted,
// answered from the content-addressed store). The gaps are the stores' value; the hit
// number is the service's floor latency. Each case collects the heap
// before its timed loop: a collection empties the sync.Pool caches the
// HTTP and JSON layers allocate from, so without a common starting heap
// the number of collections inside the loop, and with it allocs/op,
// varies from run to run.
func BenchmarkServeCache(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		e := newEnv(b, Config{JobWorkers: 1, MaxJobs: 8})
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A load level of its own keeps the cell out of the run store.
			recipe := benchRecipe(int64(i + 1))
			recipe.Util = strconv.FormatFloat(1-0.5*float64(i)/float64(b.N), 'g', -1, 64)
			if s := benchSubmitWait(b, e, recipe); s.SimulatedRuns == 0 {
				b.Fatal("miss iteration did not simulate")
			}
		}
		if h := e.s.CacheStats().Runs.Hits; h != 0 {
			b.Fatalf("miss iterations took %d runs from the run store", h)
		}
	})
	b.Run("fresh-seed", func(b *testing.B) {
		e := newEnv(b, Config{JobWorkers: 1, MaxJobs: 8})
		benchSubmitWait(b, e, benchRecipe(1)) // keep the cell's run
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s := benchSubmitWait(b, e, benchRecipe(int64(i+2))); s.SimulatedRuns == 0 || s.CachedCells != 0 {
				b.Fatalf("fresh-seed iteration: %d tasks computed, %d cells cached", s.SimulatedRuns, s.CachedCells)
			}
		}
		if h := e.s.CacheStats().Runs.Hits; h != int64(b.N) {
			b.Fatalf("%d run-store hits in %d fresh-seed iterations", h, b.N)
		}
	})
	b.Run("partial", func(b *testing.B) {
		e := newEnv(b, Config{JobWorkers: 1, MaxJobs: 8})
		recipe := benchRecipe(1)
		recipe.Util = "1,0.5"
		benchSubmitWait(b, e, recipe) // cache both cells
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A third load level of its own: the first two cells restore
			// from the cell cache, the third simulates.
			recipe.Util = "1,0.5," + strconv.FormatFloat(0.9-0.3*float64(i)/float64(b.N), 'g', -1, 64)
			if s := benchSubmitWait(b, e, recipe); s.CachedCells != 2 || s.SimulatedRuns != 1 {
				b.Fatalf("partial iteration: %d cells cached, %d tasks computed; want 2 and 1", s.CachedCells, s.SimulatedRuns)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		e := newEnv(b, Config{JobWorkers: 1, MaxJobs: 8})
		recipe := benchRecipe(1)
		benchSubmitWait(b, e, recipe) // populate the store
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s := benchSubmitWait(b, e, recipe); !s.CacheHit {
				b.Fatal("hit iteration missed the cache")
			}
		}
	})
}

// BenchmarkRenderArtifacts renders a 9-cell stress outcome (3 storage
// nodes × 3 load levels, 4 repetitions, dwell histograms on) into the
// three response formats a miss job stores: the render layer's cost
// per job, without the simulation or HTTP around it.
func BenchmarkRenderArtifacts(b *testing.B) {
	st, err := studycli.Config{
		Scenario: "stress-clouds", Duration: 2,
		Storage: "ideal:0.047,supercap:0.047,hybrid:0.01:1", Util: "1,0.75,0.5",
		Reps: 4, Seed: 1, Bins: 64, HistLo: 4, HistHi: 6,
	}.Build()
	if err != nil {
		b.Fatal(err)
	}
	out, err := st.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if len(out.Cells) != 9 {
		b.Fatalf("%d cells, want 9", len(out.Cells))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := renderArtifacts(out); err != nil {
			b.Fatal(err)
		}
	}
}
