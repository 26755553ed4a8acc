package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pnps/internal/sim"
	"pnps/internal/study"
	"pnps/internal/studycli"
)

// testRecipe is the suite's study: 2 storage × 2 load cells × 2 reps on
// a short stress scenario, with dwell histograms so the byte-identity
// checks cover the histogram fold path too.
func testRecipe(seed int64) studycli.Config {
	return studycli.Config{
		Scenario: "stress-clouds", Duration: 6,
		Storage: "ideal:0.047,supercap:0.047", Util: "1,0.5",
		Reps: 2, Seed: seed, Bins: 16, HistLo: 3, HistHi: 7,
	}
}

type env struct {
	s   *Server
	srv *httptest.Server
}

func newEnv(t testing.TB, cfg Config) *env {
	t.Helper()
	s := NewServer(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return &env{s: s, srv: srv}
}

// do performs one API request, returning the response and its body.
func (e *env) do(t testing.TB, method, path, token string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, e.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// submit posts a recipe and requires the given status code.
func (e *env) submit(t testing.TB, token string, recipe studycli.Config, wantCode int) JobStatus {
	t.Helper()
	resp, data := e.do(t, http.MethodPost, "/v1/jobs", token, recipe)
	if resp.StatusCode != wantCode {
		t.Fatalf("submit: HTTP %d, want %d (%s)", resp.StatusCode, wantCode, data)
	}
	var js JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatalf("submit response: %v (%s)", err, data)
	}
	return js
}

// await blocks until the job finishes and requires it done.
func (e *env) await(t testing.TB, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	js, err := e.s.WaitJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobDone {
		t.Fatalf("job %s state %s (%s), want done", id, js.State, js.Error)
	}
	return js
}

// outcome fetches one rendered outcome format.
func (e *env) outcome(t testing.TB, token, id, format string) []byte {
	t.Helper()
	resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id+"/outcome?format="+format, token, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outcome %s: HTTP %d (%s)", format, resp.StatusCode, data)
	}
	return data
}

// directArtifacts runs the recipe locally (no service, no cache) and
// renders it — the ground truth the service's bytes are pinned against.
func directArtifacts(t testing.TB, recipe studycli.Config) map[string][]byte {
	t.Helper()
	st, err := recipe.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	artifacts, err := renderArtifacts(out)
	if err != nil {
		t.Fatal(err)
	}
	return artifacts
}

// TestServeCacheHitByteIdentical pins the core contract: a repeated
// study submission is answered from the content-addressed store with
// bytes bit-identical to the cold run (which are themselves identical
// to a direct local run), with zero simulation work — proved both by
// the run counter and by a spy server whose job workers fail the test
// if any job reaches them.
func TestServeCacheHitByteIdentical(t *testing.T) {
	e := newEnv(t, Config{})
	recipe := testRecipe(41)

	cold := e.await(t, e.submit(t, "", recipe, http.StatusAccepted).ID)
	if cold.CacheHit {
		t.Fatal("first submission reported a whole-study cache hit")
	}
	if cold.SimulatedRuns != cold.TotalTasks {
		t.Fatalf("cold run simulated %d of %d tasks", cold.SimulatedRuns, cold.TotalTasks)
	}
	if cold.FoldedTasks != cold.TotalTasks || len(cold.Marginals) == 0 {
		t.Fatalf("cold run folded %d/%d tasks, %d marginals", cold.FoldedTasks, cold.TotalTasks, len(cold.Marginals))
	}
	coldBytes := map[string][]byte{}
	for _, f := range artifactFormats {
		coldBytes[f] = e.outcome(t, "", cold.ID, f)
	}
	direct := directArtifacts(t, recipe)
	for _, f := range artifactFormats {
		if !bytes.Equal(coldBytes[f], direct[f]) {
			t.Fatalf("%s: served cold bytes differ from a direct local run", f)
		}
	}

	// The spy: a second server sharing the populated store whose start
	// hook fails the test if any job leaves the queue, so a done job
	// proves nothing was simulated.
	spyCfg := Config{cache: e.s.cache}
	spyCfg.startHook = func(j *Job) { t.Errorf("cache hit queued job %s", j.id) }
	spy := newEnv(t, spyCfg)

	hit := spy.submit(t, "", recipe, http.StatusOK)
	if !hit.CacheHit || hit.State != JobDone {
		t.Fatalf("repeat submission: state %s, cacheHit %v (%s)", hit.State, hit.CacheHit, hit.Error)
	}
	if hit.SimulatedRuns != 0 {
		t.Fatalf("repeat submission simulated %d runs, want 0", hit.SimulatedRuns)
	}
	if hit.Digest != cold.Digest {
		t.Fatalf("digest changed across identical submissions: %s vs %s", hit.Digest, cold.Digest)
	}
	for _, f := range artifactFormats {
		if got := spy.outcome(t, "", hit.ID, f); !bytes.Equal(got, coldBytes[f]) {
			t.Fatalf("%s: cache-hit bytes differ from the cold run", f)
		}
	}
	// Same-server resubmission also hits and mints a fresh job record.
	again := e.submit(t, "", recipe, http.StatusOK)
	if !again.CacheHit || again.ID == cold.ID {
		t.Fatalf("same-server resubmission: hit %v, job %s (cold was %s)", again.CacheHit, again.ID, cold.ID)
	}
	if st := e.s.CacheStats(); st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("cache stats after hit: %+v", st)
	}
}

// TestServeCellReuse pins cross-study reuse: a study sharing matrix
// cells with an earlier one simulates only the new cells, and the mixed
// cached/fresh fold still renders bytes bit-identical to a pure local
// run of the new study.
func TestServeCellReuse(t *testing.T) {
	e := newEnv(t, Config{})
	a := testRecipe(77)
	sa := e.await(t, e.submit(t, "", a, http.StatusAccepted).ID)
	if sa.SimulatedRuns != sa.TotalTasks || sa.CachedCells != 0 {
		t.Fatalf("study A: %d/%d simulated, %d cached cells", sa.SimulatedRuns, sa.TotalTasks, sa.CachedCells)
	}

	// B appends a storage level: the 4 original cells keep their ledger
	// positions (and hence their per-task seeds), the 2 hybrid cells
	// are new.
	b := a
	b.Storage = a.Storage + ",hybrid:0.01:1"
	sb := e.await(t, e.submit(t, "", b, http.StatusAccepted).ID)
	if sb.CacheHit {
		t.Fatal("study B reported a whole-study hit despite new cells")
	}
	if sb.CachedCells != sa.TotalCells {
		t.Fatalf("study B reused %d cells, want all %d of study A's", sb.CachedCells, sa.TotalCells)
	}
	if want := sb.TotalTasks - sa.TotalTasks; sb.SimulatedRuns != want {
		t.Fatalf("study B simulated %d runs, want only the %d new-cell runs", sb.SimulatedRuns, want)
	}
	direct := directArtifacts(t, b)
	for _, f := range artifactFormats {
		if got := e.outcome(t, "", sb.ID, f); !bytes.Equal(got, direct[f]) {
			t.Fatalf("%s: mixed cached/fresh fold differs from a direct local run", f)
		}
	}
}

// TestServeBackpressure pins bounded admission: a full queue answers
// 429 with Retry-After, identical in-flight submissions coalesce, and
// a draining server refuses new work with 503 while finishing what it
// accepted.
func TestServeBackpressure(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	cfg := Config{JobWorkers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second}
	cfg.startHook = func(j *Job) {
		started <- j.id
		<-release
	}
	e := newEnv(t, cfg)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	j1 := e.submit(t, "", testRecipe(1), http.StatusAccepted)
	select {
	case id := <-started:
		if id != j1.ID {
			t.Fatalf("worker started %s, want %s", id, j1.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job 1 never started")
	}

	// Identical submission while job 1 runs: coalesced, no queue slot.
	if co := e.submit(t, "", testRecipe(1), http.StatusOK); co.ID != j1.ID {
		t.Fatalf("coalesced submission got job %s, want %s", co.ID, j1.ID)
	}

	j2 := e.submit(t, "", testRecipe(2), http.StatusAccepted)
	if j2.State != JobQueued {
		t.Fatalf("job 2 state %s, want queued", j2.State)
	}
	// Queue full: explicit backpressure.
	resp, body := e.do(t, http.MethodPost, "/v1/jobs", "", testRecipe(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submission: HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	close(release)
	e.await(t, j1.ID)
	e.await(t, j2.ID)

	e.s.Drain()
	if resp, body := e.do(t, http.MethodPost, "/v1/jobs", "", testRecipe(4)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submission: HTTP %d (%s), want 503", resp.StatusCode, body)
	}
}

// TestServeShutdownCancelsRunningJobs pins that Shutdown bounds running
// work: past its deadline it cancels the server's jobs, so a many-rep
// job abandons its unstarted runs, ends failed, caches no partial cell,
// and every job worker exits promptly.
func TestServeShutdownCancelsRunningJobs(t *testing.T) {
	started := make(chan string, 1)
	cfg := Config{JobWorkers: 1, SimWorkers: 1}
	cfg.startHook = func(j *Job) { started <- j.id }
	e := newEnv(t, cfg)

	long := studycli.Config{
		Scenario: "stress-clouds", Duration: 60,
		Storage: "ideal:0.047", Util: "1", Reps: 5000, Seed: 3,
	}
	id := e.submit(t, "", long, http.StatusAccepted).ID
	status := func() JobStatus {
		e.s.mu.Lock()
		j := e.s.jobs[id]
		e.s.mu.Unlock()
		return j.status()
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if status().SimulatedRuns > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never simulated a run")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown met a 50 ms deadline with a 5000-run job in flight")
	}
	exited := make(chan struct{})
	go func() {
		e.s.workerWG.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("job workers still running 5 s after Shutdown's deadline")
	}

	js := status()
	if js.State != JobFailed || !strings.Contains(js.Error, "shutdown") {
		t.Fatalf("cancelled job: state %s (%s), want failed by shutdown", js.State, js.Error)
	}
	if js.SimulatedRuns >= js.TotalTasks {
		t.Fatalf("cancelled job simulated all %d runs", js.TotalTasks)
	}
	if st := e.s.CacheStats(); st.Entries != 0 {
		t.Fatalf("cancelled job left %d cache entries, want none", st.Entries)
	}
}

// TestServeTenantNamespacing pins multi-tenant isolation: distinct
// tokens draw from independent seed namespaces (different digests, no
// cross-tenant cache hits), each tenant's own resubmission still hits,
// and one tenant cannot see another's jobs.
func TestServeTenantNamespacing(t *testing.T) {
	e := newEnv(t, Config{Tokens: []string{"alice", "bob"}})
	recipe := testRecipe(41)

	if resp, _ := e.do(t, http.MethodPost, "/v1/jobs", "", recipe); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated submit: HTTP %d, want 401", resp.StatusCode)
	}

	sa := e.await(t, e.submit(t, "alice", recipe, http.StatusAccepted).ID)
	sb := e.await(t, e.submit(t, "bob", recipe, http.StatusAccepted).ID)
	if sa.Digest == sb.Digest {
		t.Fatal("tenants share a digest for the same recipe — seed namespaces collide")
	}
	if sb.CacheHit || sb.SimulatedRuns != sb.TotalTasks {
		t.Fatalf("bob's run reused alice's results: hit %v, %d/%d simulated",
			sb.CacheHit, sb.SimulatedRuns, sb.TotalTasks)
	}
	if again := e.submit(t, "alice", recipe, http.StatusOK); !again.CacheHit || again.SimulatedRuns != 0 {
		t.Fatalf("alice's resubmission: hit %v, %d simulated", again.CacheHit, again.SimulatedRuns)
	}

	// Foreign job IDs answer like unknown ones.
	if resp, _ := e.do(t, http.MethodGet, "/v1/jobs/"+sa.ID, "bob", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant job fetch: HTTP %d, want 404", resp.StatusCode)
	}
	if resp, _ := e.do(t, http.MethodGet, "/v1/jobs/"+sa.ID+"/outcome", "alice", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("own-tenant outcome fetch: HTTP %d, want 200", resp.StatusCode)
	}

	// The namespace map is deterministic and non-trivial.
	if TenantSeed(41, "alice") == 41 || TenantSeed(41, "alice") == TenantSeed(41, "bob") {
		t.Fatal("TenantSeed is not a proper namespace map")
	}
	if TenantSeed(41, "alice") != TenantSeed(41, "alice") {
		t.Fatal("TenantSeed is not deterministic")
	}
}

// tenantArtifacts runs the recipe locally in a tenant's seed namespace
// (no service, no cache, no run store) and renders it.
func tenantArtifacts(t testing.TB, s *Server, recipe studycli.Config, tenant string) map[string][]byte {
	t.Helper()
	st, err := s.buildStudy(recipe, tenant)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	artifacts, err := renderArtifacts(out)
	if err != nil {
		t.Fatal(err)
	}
	return artifacts
}

// TestServeRunStore pins the run store's reach: a fresh-seed
// resubmission of a known matrix misses the cell cache but takes its
// cells' kept cloud-free runs from the run store, while another
// tenant's identical recipe takes nothing from it. Every task still
// counts as computed, and every job's bytes equal a local run's.
func TestServeRunStore(t *testing.T) {
	e := newEnv(t, Config{Tokens: []string{"alice", "bob"}})
	recipe := testRecipe(41)
	recipe.Duration = 2
	check := func(tenant string, recipe studycli.Config) (JobStatus, CacheStats) {
		t.Helper()
		js := e.await(t, e.submit(t, tenant, recipe, http.StatusAccepted).ID)
		if js.CachedCells != 0 || js.SimulatedRuns != js.TotalTasks {
			t.Fatalf("%s seed %d: %d cached cells, %d/%d tasks computed",
				tenant, recipe.Seed, js.CachedCells, js.SimulatedRuns, js.TotalTasks)
		}
		direct := tenantArtifacts(t, e.s, recipe, tenant)
		for _, f := range artifactFormats {
			if got := e.outcome(t, tenant, js.ID, f); !bytes.Equal(got, direct[f]) {
				t.Fatalf("%s seed %d: %s bytes differ from a local run", tenant, recipe.Seed, f)
			}
		}
		var stats CacheStats
		resp, body := e.do(t, http.MethodGet, "/v1/cache", tenant, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cache stats: HTTP %d", resp.StatusCode)
		}
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		return js, stats
	}

	_, cold := check("alice", recipe)
	if cold.Runs.Hits != 0 || cold.Runs.Kept == 0 {
		t.Fatalf("cold job: run store %+v, want runs kept and no hits", cold.Runs)
	}
	fresh := recipe
	fresh.Seed = 42
	_, after := check("alice", fresh)
	if after.Runs.Hits == 0 {
		t.Fatalf("fresh-seed resubmission: run store %+v, want hits", after.Runs)
	}
	_, other := check("bob", fresh)
	if other.Runs.Hits != after.Runs.Hits || other.Runs.Misses == after.Runs.Misses {
		t.Fatalf("another tenant's job: run store %+v after %+v, want misses only", other.Runs, after.Runs)
	}
}

// events reads a job's NDJSON progress stream to its end.
func (e *env) events(t *testing.T, id string) []JobStatus {
	t.Helper()
	resp, err := http.Get(e.srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var events []JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var js JobStatus
		if err := json.Unmarshal(sc.Bytes(), &js); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		if js.ID != id {
			t.Fatalf("event for job %s on job %s's stream", js.ID, id)
		}
		events = append(events, js)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestServeCountsTasksNotSimulations pins serve's accounting under run
// sharing. In a fresh job of 2 s runs most tasks of a cell are
// cloud-free and share one simulation, yet SimulatedRuns counts every
// task the job computed, and the final event reports all of them
// folded.
func TestServeCountsTasksNotSimulations(t *testing.T) {
	recipe := studycli.Config{
		Scenario: "stress-clouds", Duration: 2,
		Storage: "ideal:0.047,supercap:0.047", Util: "1,0.5",
		Reps: 4, Seed: 23, Bins: 16, HistLo: 3, HistHi: 7,
	}
	st, err := recipe.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sims := map[*sim.Result]bool{}
	for _, r := range out.Results {
		sims[r.Result] = true
	}
	if len(sims) >= len(out.Results) {
		t.Fatalf("%d tasks ran %d simulations: the recipe shares none", len(out.Results), len(sims))
	}

	e := newEnv(t, Config{})
	events := e.events(t, e.submit(t, "", recipe, http.StatusAccepted).ID)
	last := events[len(events)-1]
	if last.State != JobDone || last.CachedCells != 0 || last.TotalTasks != len(out.Results) {
		t.Fatalf("final event: state %s, %d cached cells, %d tasks", last.State, last.CachedCells, last.TotalTasks)
	}
	if last.SimulatedRuns != last.TotalTasks || last.FoldedTasks != last.TotalTasks {
		t.Fatalf("final event: %d simulated and %d folded of %d tasks (%d distinct simulations)",
			last.SimulatedRuns, last.FoldedTasks, last.TotalTasks, len(sims))
	}
	for i := 1; i < len(events); i++ {
		if events[i].SimulatedRuns < events[i-1].SimulatedRuns {
			t.Fatalf("simulated runs went backwards: %d after %d", events[i].SimulatedRuns, events[i-1].SimulatedRuns)
		}
	}
}

// TestServeEvents pins the NDJSON progress stream: one status per
// visible change, ending with the final done status at the full fold
// frontier.
func TestServeEvents(t *testing.T) {
	e := newEnv(t, Config{})
	j := e.submit(t, "", testRecipe(5), http.StatusAccepted)
	events := e.events(t, j.ID)
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events, want at least initial + final", len(events))
	}
	last := events[len(events)-1]
	if last.State != JobDone || last.FoldedTasks != last.TotalTasks {
		t.Fatalf("final event: state %s, %d/%d folded", last.State, last.FoldedTasks, last.TotalTasks)
	}
	for i := 1; i < len(events); i++ {
		if events[i].FoldedTasks < events[i-1].FoldedTasks {
			t.Fatalf("fold frontier went backwards: %d after %d", events[i].FoldedTasks, events[i-1].FoldedTasks)
		}
	}
}

// TestServeRequestValidation pins the refusal surface: strict recipe
// parsing, unknown scenarios, unknown jobs and unknown formats.
func TestServeRequestValidation(t *testing.T) {
	e := newEnv(t, Config{})

	resp, body := e.do(t, http.MethodPost, "/v1/jobs", "",
		map[string]any{"scenario": "stress-clouds", "reps": 1, "seed": 1, "utll": "1"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "utll") {
		t.Fatalf("unknown recipe field: HTTP %d (%s), want 400 naming the field", resp.StatusCode, body)
	}
	if resp, _ := e.do(t, http.MethodPost, "/v1/jobs", "",
		studycli.Config{Scenario: "no-such-scenario", Reps: 1, Seed: 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scenario: HTTP %d, want 400", resp.StatusCode)
	}
	if resp, _ := e.do(t, http.MethodGet, "/v1/jobs/job-999", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	if resp, _ := e.do(t, http.MethodGet, "/v1/jobs/job-999/outcome", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job outcome: HTTP %d, want 404", resp.StatusCode)
	}

	done := e.await(t, e.submit(t, "", testRecipe(9), http.StatusAccepted).ID)
	if resp, body := e.do(t, http.MethodGet, "/v1/jobs/"+done.ID+"/outcome?format=yaml", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: HTTP %d (%s), want 400", resp.StatusCode, body)
	}

	resp, body = e.do(t, http.MethodGet, "/v1/scenarios", "", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "stress-clouds") {
		t.Fatalf("scenario listing: HTTP %d (%s)", resp.StatusCode, body)
	}
	var stats CacheStats
	if resp, body := e.do(t, http.MethodGet, "/v1/cache", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cache stats: HTTP %d", resp.StatusCode)
	} else if err := json.Unmarshal(body, &stats); err != nil || stats.Budget <= 0 {
		t.Fatalf("cache stats body %s: %v", body, err)
	}
}

// TestServeRefusesOversizedRecipe: a submission body over 1 MiB is
// answered 413 whole, not cut at the limit and parsed — a valid recipe
// whose padding crosses the limit would otherwise be admitted, and a
// long field refused as malformed JSON. A body of exactly 1 MiB is
// read in full.
func TestServeRefusesOversizedRecipe(t *testing.T) {
	e := newEnv(t, Config{})
	raw, err := json.Marshal(testRecipe(11))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(e.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	padded := func(n int) []byte {
		return append(append([]byte(nil), raw...), bytes.Repeat([]byte(" "), n-len(raw))...)
	}
	if code, body := post(padded(1<<20 + 1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("recipe padded past 1 MiB: HTTP %d (%s), want 413", code, body)
	}
	long := []byte(`{"scenario": "` + strings.Repeat("x", 1<<20) + `"}`)
	if code, body := post(long); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("recipe with a 1 MiB field: HTTP %d (%s), want 413", code, body)
	}
	if code, body := post(padded(1 << 20)); code != http.StatusAccepted {
		t.Fatalf("recipe padded to exactly 1 MiB: HTTP %d (%s), want 202", code, body)
	}
}

// TestCacheEviction pins the LRU byte bound directly.
func TestCacheEviction(t *testing.T) {
	c := NewCache(100)
	val := bytes.Repeat([]byte("x"), 30)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), val) // 32 bytes per entry
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 || st.Bytes > 100 {
		t.Fatalf("after overflow: %+v", st)
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	// Touching k1 makes k2 the eviction victim.
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 missing")
	}
	c.Put("k4", val)
	if _, ok := c.Get("k2"); ok {
		t.Fatal("recency was ignored: k2 outlived the untouched k1")
	}
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("recently used k1 was evicted")
	}
	// An entry that alone exceeds the budget is refused.
	c.Put("huge", bytes.Repeat([]byte("y"), 200))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("over-budget entry was admitted")
	}
}

// TestJobStatusJSON pins the hand-written status encoder to
// encoding/json: compact (the event stream) and indented (every other
// status answer) bytes, and failure exactly where json.Encoder fails —
// a NaN or infinity anywhere in a marginal.
func TestJobStatusJSON(t *testing.T) {
	recipe := testRecipe(5)
	st, err := recipe.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	live := JobStatus{
		ID: "job-7", State: JobDone, Digest: "0123abcd", TotalTasks: 8, TotalCells: 4,
		FoldedTasks: 8, CachedCells: 1, SimulatedRuns: 6, Marginals: out.Marginals,
	}
	edge := func() JobStatus {
		m := out.Marginals[0]
		m.Axis, m.Level = "a<b>&c\"\\\u2028\u2029", "bad\xff\x00\x1f\b\f\t\r\n"
		m.Summary.SurvivalRate = 1e-7
		m.Summary.Stability.Min = math.Copysign(0, -1)
		m.Summary.Stability.Max = 1e21
		m.Summary.MinVC.P95 = 9.999999999999999e20
		m.Summary.FinalVC.Median = 5e-324
		return JobStatus{
			ID: "job-\u00e9", State: JobFailed, Error: "boom <script>&\u2028", CacheHit: true,
			Marginals: []study.Marginal{m},
		}
	}
	cases := []struct {
		name string
		js   JobStatus
	}{
		{"zero", JobStatus{}},
		{"live", live},
		{"no marginals", JobStatus{ID: "job-1", State: JobQueued, Marginals: []study.Marginal{}}},
		{"edge", edge()},
	}
	for _, f := range []func(*study.Marginal){
		func(m *study.Marginal) { m.Summary.SurvivalRate = math.NaN() },
		func(m *study.Marginal) { m.Summary.StorageEnergyDeltaJ.P75 = math.Inf(-1) },
		func(m *study.Marginal) { m.Summary.Stability.Mean = math.Inf(1) },
	} {
		js := edge()
		f(&js.Marginals[0])
		cases = append(cases, struct {
			name string
			js   JobStatus
		}{"non-finite", js})
	}
	for _, tc := range cases {
		for _, indent := range []bool{false, true} {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			if indent {
				enc.SetIndent("", "  ")
			}
			wantErr := enc.Encode(tc.js)
			got, gotErr := tc.js.appendJSON(nil, indent)
			switch {
			case (wantErr == nil) != (gotErr == nil):
				t.Fatalf("%s (indent %v): error %v, encoding/json error %v", tc.name, indent, gotErr, wantErr)
			case wantErr != nil && gotErr.Error() != wantErr.Error():
				t.Fatalf("%s (indent %v): error %q, encoding/json error %q", tc.name, indent, gotErr, wantErr)
			case (wantErr != nil) != (tc.name == "non-finite"):
				t.Fatalf("%s (indent %v): encoding/json error %v", tc.name, indent, wantErr)
			case wantErr == nil && !bytes.Equal(got, want.Bytes()):
				t.Fatalf("%s (indent %v):\n%s\nvs encoding/json\n%s", tc.name, indent, got, want.Bytes())
			}
		}
	}
}
