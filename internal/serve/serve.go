package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pnps/internal/batch"
	"pnps/internal/coord"
	"pnps/internal/jsonw"
	"pnps/internal/scenario"
	"pnps/internal/stats"
	"pnps/internal/study"
	"pnps/internal/studycli"
)

// Config configures the simulation service.
type Config struct {
	// Tokens is the bearer-token set (see coord.RequireBearer). Empty
	// disables authentication; with tokens configured, each token is a
	// tenant whose studies draw from an independent seed namespace.
	Tokens []string
	// JobWorkers bounds concurrently executing jobs (default 2).
	JobWorkers int
	// QueueDepth bounds jobs admitted but not yet running (default 16).
	// A full queue answers 429 with Retry-After — bounded admission, so
	// a submission burst degrades into explicit backpressure instead of
	// unbounded memory growth.
	QueueDepth int
	// SimWorkers bounds per-job run concurrency (0 keeps the study
	// default, GOMAXPROCS).
	SimWorkers int
	// CacheBytes bounds the content-addressed result cache (<=0 selects
	// 64 MiB).
	CacheBytes int64
	// MaxJobs bounds retained job records (default 256). Queued and
	// running jobs are never pruned; beyond the bound the oldest
	// finished jobs are forgotten first.
	MaxJobs int
	// RetryAfter is the backoff hint answered with a 429 (default 1s).
	RetryAfter time.Duration
	// Logf, when non-nil, receives service diagnostics.
	Logf func(format string, args ...any)

	// startHook, when non-nil, runs just before a job leaves the queue
	// and starts executing — the seam backpressure tests use to hold
	// workers busy deterministically.
	startHook func(j *Job)
	// cache, when non-nil, replaces the server's own store — the seam
	// cache tests use to point a second server at a populated store.
	cache *Cache
}

// Job states, as reported on the wire.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the wire representation of a job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Digest is the content address of the study outcome — the
	// whole-study fingerprint digest in the submitting tenant's seed
	// namespace.
	Digest     string `json:"digest"`
	TotalTasks int    `json:"total_tasks"`
	TotalCells int    `json:"total_cells"`
	// FoldedTasks counts tasks folded into the aggregate so far —
	// cached and simulated alike.
	FoldedTasks int `json:"folded_tasks"`
	// CachedCells counts matrix cells answered from the cell cache.
	CachedCells int `json:"cached_cells"`
	// SimulatedRuns counts the tasks this job computed rather than
	// restored from the cache; tasks of a cell that shared one
	// simulation count one each. A repeat submission of a cached study
	// reports zero.
	SimulatedRuns int `json:"simulated_runs"`
	// CacheHit marks a whole-study hit: the response bytes were served
	// from the store without touching the engine or the folder.
	CacheHit bool `json:"cache_hit"`
	// Marginals are the live per-axis marginal summaries at the fold
	// frontier — mid-study observability while the job runs, the final
	// marginals once it is done. Empty on whole-study cache hits (the
	// folder never runs).
	Marginals []study.Marginal `json:"marginals,omitempty"`
}

// Job is one submitted study: the serve-side execution state behind a
// JobStatus.
type Job struct {
	id     string
	tenant string
	digest string
	// runs is the job's study, planned once at submission and bound to
	// the server's run store in the tenant's namespace.
	runs *study.StudyRuns
	reps int

	mu            sync.Mutex
	rev           int // bumped on every visible mutation; event streams poll it
	state         string
	err           string
	totalTasks    int
	totalCells    int
	foldedTasks   int
	cachedCells   int
	simulatedRuns int
	progressed    int // completed tasks the running chunk has reported
	cacheHit      bool
	marginals     []study.Marginal
	artifacts     map[string][]byte // format → rendered outcome bytes
	done          chan struct{}
}

func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, State: j.state, Error: j.err, Digest: j.digest,
		TotalTasks: j.totalTasks, TotalCells: j.totalCells,
		FoldedTasks: j.foldedTasks, CachedCells: j.cachedCells,
		SimulatedRuns: j.simulatedRuns, CacheHit: j.cacheHit,
		Marginals: append([]study.Marginal(nil), j.marginals...),
	}
}

// appendJSON appends the status as a json.Encoder encodes it, newline
// included: indented as writeJSON's encoder sets it or compact, and
// Marginals under their Go field names. A non-finite marginal float
// fails it, as it fails json.Marshal.
func (js *JobStatus) appendJSON(dst []byte, indent bool) ([]byte, error) {
	w := jsonw.NewWriter(dst, indent)
	w.BeginObject()
	w.Key("id")
	w.String(js.ID)
	w.Key("state")
	w.String(js.State)
	if js.Error != "" {
		w.Key("error")
		w.String(js.Error)
	}
	w.Key("digest")
	w.String(js.Digest)
	w.Key("total_tasks")
	w.Int(js.TotalTasks)
	w.Key("total_cells")
	w.Int(js.TotalCells)
	w.Key("folded_tasks")
	w.Int(js.FoldedTasks)
	w.Key("cached_cells")
	w.Int(js.CachedCells)
	w.Key("simulated_runs")
	w.Int(js.SimulatedRuns)
	w.Key("cache_hit")
	w.Bool(js.CacheHit)
	if len(js.Marginals) > 0 {
		w.Key("marginals")
		w.BeginArray()
		for i := range js.Marginals {
			m := &js.Marginals[i]
			w.BeginObject()
			w.Key("Axis")
			w.String(m.Axis)
			w.Key("Level")
			w.String(m.Level)
			w.Key("Summary")
			appendSummary(&w, &m.Summary)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
	if err := w.Err(); err != nil {
		return dst, err
	}
	return append(w.B, '\n'), nil
}

// appendSummary writes a study.Summary as an object under its Go field
// names.
func appendSummary(w *jsonw.Writer, s *study.Summary) {
	w.BeginObject()
	w.Key("Runs")
	w.Int(s.Runs)
	w.Key("SurvivalRate")
	w.Float(s.SurvivalRate)
	w.Key("TotalBrownouts")
	w.Int(s.TotalBrownouts)
	for _, f := range [...]struct {
		name string
		s    *stats.Summary
	}{
		{"Stability", &s.Stability},
		{"Instructions", &s.Instructions},
		{"LifetimeSeconds", &s.LifetimeSeconds},
		{"FinalVC", &s.FinalVC},
		{"MinVC", &s.MinVC},
		{"StorageEnergyDeltaJ", &s.StorageEnergyDeltaJ},
	} {
		w.Key(f.name)
		w.BeginObject()
		w.Key("N")
		w.Int(f.s.N)
		for _, v := range [...]struct {
			name string
			x    float64
		}{
			{"Min", f.s.Min}, {"Max", f.s.Max}, {"Mean", f.s.Mean},
			{"StdDev", f.s.StdDev}, {"Median", f.s.Median},
			{"P5", f.s.P5}, {"P95", f.s.P95}, {"P25", f.s.P25}, {"P75", f.s.P75},
		} {
			w.Key(v.name)
			w.Float(v.x)
		}
		w.EndObject()
	}
	w.EndObject()
}

func (j *Job) revision() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rev
}

func (j *Job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

func (j *Job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.rev++
	j.mu.Unlock()
}

func (j *Job) fail(err error) {
	j.mu.Lock()
	j.state = JobFailed
	j.err = err.Error()
	j.rev++
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) complete(artifacts map[string][]byte) {
	j.mu.Lock()
	j.state = JobDone
	j.artifacts = artifacts
	j.rev++
	j.mu.Unlock()
	close(j.done)
}

// countSimulated is the OnProgress of the job's study: it counts every
// completed task on the job. OnProgress is the completion callback,
// which advances by every task a finished simulation or a kept run
// stands for, so the count measures work actually done, which is what
// the zero-work-on-repeat guarantee is stated against. Cells run one
// after another and each chunk's last call reports completed == total,
// so the count restarts there for the next cell.
func (j *Job) countSimulated(completed, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delta := completed - j.progressed
	j.progressed = completed
	if completed == total {
		j.progressed = 0
	}
	if delta > 0 {
		j.simulatedRuns += delta
		j.rev++
	}
}

// noteFold snapshots the fold frontier after a cell lands.
func (j *Job) noteFold(cached bool, folded int, marginals []study.Marginal) {
	j.mu.Lock()
	if cached {
		j.cachedCells++
	}
	j.foldedTasks = folded
	j.marginals = marginals
	j.rev++
	j.mu.Unlock()
}

// Server is the simulation service: bounded-admission job execution in
// front of a content-addressed result store. Every cell it simulates
// runs through one study.RunStore, so a cell's cloud-free run, once
// simulated, serves the same cell in later jobs of the same tenant
// whatever their seeds.
type Server struct {
	cfg   Config
	cache *Cache
	runs  *study.RunStore

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for bounded retention
	seq      int
	queue    chan *Job
	draining bool

	workerWG sync.WaitGroup
	// ctx bounds every simulation the server runs; Shutdown cancels it
	// once its own deadline passes, abandoning unstarted runs.
	ctx    context.Context
	cancel context.CancelFunc
}

// NewServer starts a service with cfg's admission bounds and cache
// budget. The job workers run until Drain/Shutdown.
func NewServer(cfg Config) *Server {
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 256
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.cache == nil {
		cfg.cache = NewCache(cfg.CacheBytes)
	}
	s := &Server{
		cfg:   cfg,
		cache: cfg.cache,
		runs:  study.NewRunStore(),
		jobs:  map[string]*Job{},
		queue: make(chan *Job, cfg.QueueDepth),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.workerWG.Add(cfg.JobWorkers)
	for i := 0; i < cfg.JobWorkers; i++ {
		go func() {
			defer s.workerWG.Done()
			for j := range s.queue {
				s.execute(j)
			}
		}()
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// CacheStats snapshots the result-store counters, and the run store's
// under Runs.
func (s *Server) CacheStats() CacheStats {
	st := s.cache.Stats()
	st.Runs = s.runs.Stats()
	return st
}

// Drain stops admitting jobs: new submissions are answered 503 while
// queued and running jobs finish — their results land in the cache, so
// nothing accepted is lost to a restart-for-deploy.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.queue)
}

// Shutdown drains and waits for in-flight jobs, up to ctx. Past ctx's
// deadline it cancels the running jobs: runs already simulating finish,
// unstarted ones are abandoned, and each such job ends failed with only
// its completed cells cached.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		return fmt.Errorf("serve: shutdown incomplete: %w", ctx.Err())
	}
}

// WaitJob blocks until the job finishes (done or failed) and returns
// its final status.
func (s *Server) WaitJob(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.status(), nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// TenantSeed maps a study seed into a tenant's seed namespace. Distinct
// tenants get independent streams — their runs, and therefore their
// cache entries, can never collide — while each tenant's mapping is a
// pure function of (tenant, seed), so resubmitting the same recipe is
// exactly as reproducible as running it locally. The empty tenant
// (authentication disabled) keeps the seed untouched.
func TenantSeed(seed int64, tenant string) int64 {
	if tenant == "" {
		return seed
	}
	h := fnv.New64a()
	h.Write([]byte(tenant))
	return batch.Seed(seed^int64(h.Sum64()), 0)
}

// buildStudy turns a wire recipe into the executable, tenant-namespaced
// study this server would run.
func (s *Server) buildStudy(recipe studycli.Config, tenant string) (study.Study, error) {
	st, err := recipe.Build()
	if err != nil {
		return study.Study{}, err
	}
	st.Seed = TenantSeed(st.Seed, tenant)
	st.Workers = s.cfg.SimWorkers
	return st, nil
}

// Artifact format names, also the ?format= values of the outcome
// endpoint.
const (
	FormatJSON     = "json"
	FormatCellsCSV = "cells-csv"
	FormatRunsCSV  = "runs-csv"
)

var artifactFormats = []string{FormatJSON, FormatCellsCSV, FormatRunsCSV}

func studyKey(digest, format string) string { return "study:" + digest + ":" + format }
func cellKey(digest string) string          { return "cell:" + digest }

// renderArtifacts produces every response format from a completed
// outcome, each appended straight into its artifact slice. Rendering
// is deterministic (fixed field order, sorted map keys), which is what
// lets the byte-identity contract extend from the outcome to the
// response body.
func renderArtifacts(out *study.StudyOutcome) (map[string][]byte, error) {
	js, err := out.AppendJSON(nil)
	if err != nil {
		return nil, fmt.Errorf("serve: rendering %s: %w", FormatJSON, err)
	}
	return map[string][]byte{
		FormatJSON:     js,
		FormatCellsCSV: out.AppendCellsCSV(nil),
		FormatRunsCSV:  out.AppendRunsCSV(nil),
	}, nil
}

// lookupArtifacts returns the stored whole-study artifact set, all
// formats or nothing: eviction may have taken some formats, and a
// partial hit could not serve every outcome request.
func (s *Server) lookupArtifacts(digest string) (map[string][]byte, bool) {
	artifacts := make(map[string][]byte, len(artifactFormats))
	for _, f := range artifactFormats {
		raw, ok := s.cache.Get(studyKey(digest, f))
		if !ok {
			return nil, false
		}
		artifacts[f] = raw
	}
	return artifacts, true
}

func (s *Server) storeArtifacts(digest string, artifacts map[string][]byte) {
	for _, f := range artifactFormats {
		s.cache.Put(studyKey(digest, f), artifacts[f])
	}
}

// execute runs one job off the queue.
func (s *Server) execute(j *Job) {
	if s.cfg.startHook != nil {
		s.cfg.startHook(j)
	}
	j.setState(JobRunning)
	if err := s.runJob(j); err != nil {
		s.logf("serve: job %s failed: %v", j.id, err)
		j.fail(err)
		return
	}
	s.logf("serve: job %s done (%d/%d cells cached, %d runs simulated)",
		j.id, j.status().CachedCells, j.totalCells, j.status().SimulatedRuns)
}

// runJob executes a study cell by cell: each cell is either restored
// from the content-addressed store (RestoreCell verifies seeds
// before anything reaches the folder) or simulated as one chunk
// through the run store, and every fresh cell's records are stored for
// the next study that shares them. With chunk size = reps, cells and
// chunks coincide, so the Folder folds mixed cached/fresh cells in
// canonical order and its outcome stays bit-identical to an unsharded
// Run.
func (s *Server) runJob(j *Job) error {
	runs := j.runs
	folder, err := runs.NewFolder(j.reps)
	if err != nil {
		return err
	}
	for c := 0; c < j.totalCells; c++ {
		digest, err := runs.CellKey(c)
		if err != nil {
			return err
		}
		key := cellKey(digest)
		if raw, ok := s.cache.Get(key); ok {
			cp, err := runs.RestoreCell(c, raw)
			if err != nil {
				// A digest collision or corrupt entry: refuse the cache,
				// simulate the truth instead.
				s.logf("serve: job %s cell %d: cached records refused (%v) — simulating", j.id, c, err)
			} else if err := folder.Fold(c, cp); err != nil {
				return err
			} else {
				j.noteFold(true, folder.FoldedTasks(), folder.Marginals())
				continue
			}
		}
		cp, err := runs.RunChunk(s.ctx, folder.Range(c))
		if err != nil && s.ctx.Err() != nil {
			// One error in place of the chunk's per-run "not started" list.
			err = fmt.Errorf("abandoned by shutdown: %w", s.ctx.Err())
		}
		if err != nil {
			return fmt.Errorf("serve: job %s cell %d: %w", j.id, c, err)
		}
		if raw, err := runs.EncodeCell(cp, c); err == nil {
			s.cache.Put(key, raw)
		}
		if err := folder.Fold(c, cp); err != nil {
			return err
		}
		j.noteFold(false, folder.FoldedTasks(), folder.Marginals())
	}
	out, err := folder.Outcome()
	if err != nil {
		return err
	}
	artifacts, err := renderArtifacts(out)
	if err != nil {
		return err
	}
	s.storeArtifacts(j.digest, artifacts)
	j.complete(artifacts)
	return nil
}

// Handler returns the service's HTTP API, wrapped in bearer
// authentication when tokens are configured.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/outcome", s.handleOutcome)
	return coord.RequireBearer(s.cfg.Tokens, mux)
}

// writeStatus answers with a job status, written as writeJSON would
// write it: on a status JSON cannot represent, the header goes out with
// an empty body.
func writeStatus(w http.ResponseWriter, code int, js JobStatus) {
	b, err := js.appendJSON(nil, true)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		w.Write(b)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	var out []entry
	for _, sp := range scenario.List() {
		out = append(out, entry{Name: sp.Name, Description: sp.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.CacheStats())
}

// handleSubmit admits one study: parse strictly, build in the tenant's
// namespace, answer whole-study cache hits instantly, coalesce onto an
// identical in-flight job, otherwise enqueue — or refuse with explicit
// backpressure when the queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// A recipe is a few hundred bytes; a body beyond 1 MiB is refused
	// whole rather than cut short and parsed.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "reading request: "+err.Error(), code)
		return
	}
	recipe, err := studycli.DecodeConfig(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tenant := coord.BearerToken(r)
	st, err := s.buildStudy(recipe, tenant)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j := &Job{tenant: tenant, state: JobQueued, done: make(chan struct{})}
	st.OnProgress = j.countSimulated
	if j.runs, err = s.runs.Bind(st, tenant); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp := j.runs.Fingerprint()
	if j.digest, err = fp.Digest(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	j.reps, j.totalCells = fp.Reps, j.runs.Cells()
	j.totalTasks = j.reps * j.totalCells

	s.mu.Lock()
	// Coalesce: an identical study already queued or running becomes
	// this caller's job too — simulating it twice concurrently would
	// only race to write the same cache entries.
	for _, id := range s.order {
		prior := s.jobs[id]
		if prior != nil && prior.digest == j.digest && prior.tenant == tenant && !prior.finished() {
			s.mu.Unlock()
			writeStatus(w, http.StatusOK, prior.status())
			return
		}
	}
	s.seq++
	j.id = fmt.Sprintf("job-%d", s.seq)

	if artifacts, ok := s.lookupArtifacts(j.digest); ok {
		// Whole-study hit: the stored bytes are bit-identical to what a
		// cold run would render, so the job is born done — no queue slot,
		// no folder, no engine.
		j.state = JobDone
		j.cacheHit = true
		j.foldedTasks = j.totalTasks
		j.cachedCells = j.totalCells
		j.artifacts = artifacts
		close(j.done)
		s.registerLocked(j)
		s.mu.Unlock()
		writeStatus(w, http.StatusOK, j.status())
		return
	}
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "service draining", http.StatusServiceUnavailable)
		return
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, "job queue full", http.StatusTooManyRequests)
		return
	}
	s.registerLocked(j)
	s.mu.Unlock()
	writeStatus(w, http.StatusAccepted, j.status())
}

// registerLocked records a job and prunes the oldest finished jobs
// beyond the retention bound. Caller holds s.mu.
func (s *Server) registerLocked(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.jobs) > s.cfg.MaxJobs {
		pruned := false
		for i, id := range s.order {
			if old := s.jobs[id]; old != nil && old.finished() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			break // everything retained is still in flight
		}
	}
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	// A job is visible to its submitting tenant only; leaking even the
	// existence of another tenant's job would leak what they run, so a
	// foreign ID answers exactly like an unknown one.
	if j != nil && j.tenant != coord.BearerToken(r) {
		j = nil
	}
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeStatus(w, http.StatusOK, j.status())
	}
}

// handleEvents streams the job's status as NDJSON: one status line per
// visible change, a final line when the job finishes, then EOF. Clients
// tail it for live mid-fold marginals without polling.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var line []byte
	emit := func() bool {
		js := j.status()
		b, err := js.appendJSON(line[:0], false)
		if err != nil {
			return false
		}
		line = b
		if _, err := w.Write(b); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	lastRev := j.revision()
	if !emit() {
		return
	}
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-j.done:
			emit()
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if rev := j.revision(); rev != lastRev {
				lastRev = rev
				if !emit() {
					return
				}
			}
		}
	}
}

// handleOutcome serves a finished job's rendered outcome. The bytes are
// the job's stored artifact — on a cache hit, the very bytes the cold
// run rendered.
func (s *Server) handleOutcome(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = FormatJSON
	}
	j.mu.Lock()
	state, errmsg := j.state, j.err
	artifact, ok := j.artifacts[format]
	j.mu.Unlock()
	switch {
	case state == JobFailed:
		http.Error(w, "job failed: "+errmsg, http.StatusConflict)
	case state != JobDone:
		http.Error(w, "job not complete", http.StatusNotFound)
	case !ok:
		http.Error(w, fmt.Sprintf("unknown format %q (want %v)", format, artifactFormats), http.StatusBadRequest)
	default:
		if format == FormatJSON {
			w.Header().Set("Content-Type", "application/json")
		} else {
			w.Header().Set("Content-Type", "text/csv")
		}
		w.Write(artifact)
	}
}
