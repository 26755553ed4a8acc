package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"pnps/internal/batch"
	"pnps/internal/serve"
	"pnps/internal/studycli"
)

// The serve traffic mix, in percent of open-loop jobs: resubmissions of
// a recipe sent at least resubmitAge earlier (whole-study cache hits),
// overlaps that add one new load level to a seen recipe (its old cells
// restore from the cell cache, the new ones simulate), and fresh seeds
// for the rest.
const (
	mixResubmit = 50
	mixOverlap  = 25
	resubmitAge = time.Second
	jobTimeout  = time.Minute
)

// The open loop takes the first openShare of the window. A closed loop of
// misses follows: clientConns clients each submit the next new recipe as
// soon as their last one returns, which measures the service's capacity
// for new work; the open loop cannot, as its offered load sets how many
// runs it simulates per second. The closed loop runs a fixed number of
// jobs (sizes.Burst), so the cache ends each run holding the same work
// whatever the host's speed, in rounds of burstRound jobs with a host
// probe before each, taken while the service is idle.
const (
	openShare  = 0.75
	burstRound = 64
)

// serveJob is one scheduled submission: when it is due after the window
// opens, and the recipe body it posts.
type serveJob struct {
	due  time.Duration
	body []byte
}

// serveRecipe is a stress recipe with paired seeds: a cell keeps its
// seeds whatever its position in the matrix, so an added load level
// leaves the other cells' cache entries valid.
func serveRecipe(seed int64, sz sizes) studycli.Config {
	c := stressRecipe(seed, sz.Duration, sz.Reps)
	c.Paired = true
	return c
}

// withNewLevel adds a load level in (0.55, 0.95) to a recipe's matrix,
// clear of its levels 1 and 0.5. (Stress runs at utilisation 0.2 or below
// do not terminate, so the benchmark stays clear of them.)
func withNewLevel(c studycli.Config, rng *rand.Rand) studycli.Config {
	c.Util = fmt.Sprintf("%s,%.5f", matrixUtil, 0.55+0.4*rng.Float64())
	return c
}

func encodeRecipe(c studycli.Config) []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // a flat struct of strings and numbers always encodes
	}
	return b
}

// baseRecipes are the recipes set-up populates the store with. They are
// the same at every seed; the traffic is what the seed varies.
func baseRecipes(sz sizes) []studycli.Config {
	base := make([]studycli.Config, sz.Recipes)
	for i := range base {
		base[i] = serveRecipe(batch.Seed(warmSeed, i), sz)
	}
	return base
}

// planServe derives the open loop's schedule from the seed: exactly
// rate × open arrivals with uniformly distributed times (a Poisson process
// conditioned on its count) and a shuffled deck holding the exact mix.
func planServe(seed int64, sz sizes, base []studycli.Config, open time.Duration) []serveJob {
	rng := rand.New(rand.NewSource(seed))
	n := max(1, int(sz.Rate*open.Seconds()+0.5))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(open))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	kinds := make([]int, n)
	for i := range kinds {
		switch {
		case i < n*mixResubmit/100:
			kinds[i] = 0
		case i < n*(mixResubmit+mixOverlap)/100:
			kinds[i] = 1
		default:
			kinds[i] = 2
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	extendable := append([]studycli.Config(nil), base...)
	var pool [][]byte // recipes old enough to resubmit
	for _, c := range base {
		pool = append(pool, encodeRecipe(c))
	}
	aged := 0
	jobs := make([]serveJob, n)
	for i, due := range dues {
		for aged < i && jobs[aged].due <= due-resubmitAge {
			pool = append(pool, jobs[aged].body)
			aged++
		}
		var body []byte
		switch kinds[i] {
		case 0:
			body = pool[rng.Intn(len(pool))]
		case 1:
			body = encodeRecipe(withNewLevel(extendable[rng.Intn(len(extendable))], rng))
		default:
			c := serveRecipe(rng.Int63(), sz)
			extendable = append(extendable, c)
			body = encodeRecipe(c)
		}
		jobs[i] = serveJob{due: due, body: body}
	}
	return jobs
}

// burstRecipe is the i-th job of the closed loop, derived from the seed
// and i alone: even jobs extend a base recipe by a new load level, odd
// ones are fresh, the open loop's one-to-one ratio of the two.
func burstRecipe(seed int64, sz sizes, base []studycli.Config, i int) []byte {
	rng := rand.New(rand.NewSource(batch.Seed(^seed, i)))
	if i%2 == 0 {
		return encodeRecipe(withNewLevel(base[rng.Intn(len(base))], rng))
	}
	return encodeRecipe(serveRecipe(rng.Int63(), sz))
}

// serveInst is a running in-process pnserve and its HTTP client.
type serveInst struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan struct{}
	url       string
	transport *http.Transport
	client    *http.Client
	baseRecs  []jobRecord // the set-up's cold completions of the base recipes
}

func startServe(tr *Tracer, base []studycli.Config) (*serveInst, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Two job workers (the default) of one simulation worker each keep
	// the server at simWorkers simulations at a time.
	srv := serve.NewServer(serve.Config{SimWorkers: 1})
	s := &serveInst{
		srv:       srv,
		hs:        &http.Server{Handler: serverSpans(tr, "serve", srv.Handler())},
		served:    make(chan struct{}),
		url:       "http://" + ln.Addr().String(),
		transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns},
	}
	s.client = &http.Client{Transport: &clientSpans{base: s.transport, tr: tr}, Timeout: jobTimeout}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	for i, c := range base {
		rec, err := s.job(context.Background(), tr, encodeRecipe(c), fmt.Sprintf("base-%d", i), time.Now())
		if err == nil && !rec.ok {
			err = fmt.Errorf("base recipe %d: %s", i, rec.failure)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		s.baseRecs = append(s.baseRecs, rec)
	}
	return s, nil
}

func (s *serveInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Shutdown(ctx)
	s.transport.CloseIdleConnections()
}

// jobRecord is the client's view of one job.
type jobRecord struct {
	body      []byte
	ok        bool
	failure   string
	refused   bool    // 429 or 503 at submission
	latencyMs float64 // from the scheduled send to the outcome's last byte
	lateMs    float64 // how late the send started
	execMs    float64 // submission answered → events stream reports done
	hit       bool    // the server answered from its whole-study cache
	simulated int
	cached    int // cells restored from the cell cache
	cells     int
	digest    string // SHA-256 of the outcome JSON
}

// job submits one recipe and follows it the way a client would: POST
// /v1/jobs, the /events stream until the job finishes, then the JSON
// outcome. A transport error is returned; a refusal or failed job is
// recorded.
func (s *serveInst) job(ctx context.Context, tr *Tracer, body []byte, req string, due time.Time) (jobRecord, error) {
	rec := jobRecord{body: body}
	root := tr.NewID()
	start := time.Now()
	rec.lateMs = ms(start.Sub(due))
	defer func() { tr.Add(root, 0, "serve.job", req, start, time.Now()) }()

	code, raw, err := s.exchange(ctx, root, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return rec, err
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		rec.refused, rec.failure = true, fmt.Sprintf("submission refused with HTTP %d", code)
		return rec, nil
	}
	var st serve.JobStatus
	if code != http.StatusOK && code != http.StatusAccepted || json.Unmarshal(raw, &st) != nil {
		rec.failure = fmt.Sprintf("submission answered HTTP %d: %s", code, bytes.TrimSpace(raw))
		return rec, nil
	}
	rec.hit = st.CacheHit
	submitted := time.Now()
	final, err := s.follow(ctx, root, st.ID)
	if err != nil {
		return rec, err
	}
	rec.execMs = ms(time.Since(submitted))
	if final.State != serve.JobDone {
		rec.failure = fmt.Sprintf("job %s ended %s: %s", st.ID, final.State, final.Error)
		return rec, nil
	}
	rec.simulated, rec.cached, rec.cells = final.SimulatedRuns, final.CachedCells, final.TotalCells
	code, raw, err = s.exchange(ctx, root, http.MethodGet, "/v1/jobs/"+st.ID+"/outcome?format=json", nil)
	if err != nil {
		return rec, err
	}
	if code != http.StatusOK {
		rec.failure = fmt.Sprintf("outcome answered HTTP %d", code)
		return rec, nil
	}
	rec.latencyMs = ms(time.Since(due))
	rec.digest = sha256Hex(raw)
	rec.ok = true
	return rec, nil
}

func (s *serveInst) exchange(ctx context.Context, parent int64, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(withParent(req, parent))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// follow reads a job's NDJSON event stream to its end and returns the
// last status.
func (s *serveInst) follow(ctx context.Context, parent int64, id string) (serve.JobStatus, error) {
	var last serve.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return last, err
	}
	resp, err := s.client.Do(withParent(req, parent))
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("events for %s answered HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return last, fmt.Errorf("events for %s: %w", id, err)
		}
	}
	return last, sc.Err()
}

func runServe(r *runner, sz sizes) error {
	base := baseRecipes(sz)
	open := time.Duration(float64(r.window) * openShare)
	jobs := planServe(r.seed, sz, base, open)
	inst, err := measureSetup(r, func() (*serveInst, error) { return startServe(r.tr, base) },
		func(s *serveInst) { s.close() })
	if err != nil {
		return err
	}
	defer inst.close()

	evicted0 := inst.srv.CacheStats().Evictions
	rt0 := readRuntime()
	start := r.openWindow()
	recs, errs := inst.openLoop(r.tr, jobs, start)
	burst, burstErrs, burstTime, err := inst.closedLoop(r, sz, base)
	if err != nil {
		return err
	}
	r.closeWindow()
	rt1 := readRuntime()

	// A job that failed or was refused missed every latency limit: it
	// counts as taking jobTimeout, so refusing slow jobs cannot speed up
	// the latencies.
	var all, hits, misses, late, exec []float64
	var simulated, openSimulated, cached, cells, refused int
	tally := func(name string, i int, rec jobRecord, err error) bool {
		r.attempted++
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "bench: serve %s %d: %v\n", name, i, err)
		case !rec.ok:
			if rec.refused {
				refused++
			}
			fmt.Fprintf(os.Stderr, "bench: serve %s %d: %s\n", name, i, rec.failure)
		default:
			return true
		}
		r.failed++
		return false
	}
	for i, rec := range recs {
		if !tally("job", i, rec, errs[i]) {
			all = append(all, ms(jobTimeout))
			continue
		}
		all = append(all, rec.latencyMs)
		late = append(late, rec.lateMs)
		openSimulated += rec.simulated
		if rec.hit {
			hits = append(hits, rec.latencyMs)
		} else {
			misses = append(misses, rec.latencyMs)
			exec = append(exec, rec.execMs)
			cached += rec.cached
			cells += rec.cells
		}
	}
	for i, rec := range burst {
		if tally("burst job", i, rec, burstErrs[i]) {
			simulated += rec.simulated
		}
	}
	checkServeBytes(r, append(append(append([]jobRecord(nil), inst.baseRecs...), recs...), burst...))

	slow := r.slowdown()
	job, hit, miss := summarise(scale(all, 1/slow)), summarise(scale(hits, 1/slow)), summarise(scale(misses, 1/slow))
	// Half the open loop's jobs are hits, so the median job sits on the
	// edge between the hit and miss modes and jumps between them from run
	// to run. The end-to-end latency is the hits' median, the cache and
	// HTTP path; the misses' path is timed by the closed loop's rate.
	r.set("runs_per_s", float64(simulated)/burstTime.Seconds()*slow)
	r.set("job_p50_ms", hit.P50)
	r.set("job_mean_ms", job.Mean)
	r.set("job_p99_ms", job.Tail)
	r.set("job_samples", float64(job.N))
	r.set("hit_p50_ms", hit.P50)
	r.set("hit_p99_ms", hit.Tail)
	r.set("hit_samples", float64(hit.N))
	r.set("miss_p50_ms", miss.P50)
	r.set("miss_p99_ms", miss.Tail)
	r.set("miss_samples", float64(miss.N))
	r.set("runtime.gc_cpu_share", gcShare(rt0, rt1))
	r.set("serve.exec_ms", mean(exec))
	r.set("serve.sched_late_ms", mean(late))
	r.set("serve.hit_ratio", ratio(float64(len(hits)), float64(len(recs))))
	r.set("serve.cells_cached_ratio", ratio(float64(cached), float64(cells)))
	r.set("serve.runs_simulated_per_job", ratio(float64(openSimulated), float64(len(recs))))
	r.set("serve.evictions", float64(inst.srv.CacheStats().Evictions-evicted0))
	r.set("serve.refused", float64(refused))

	if r.tr != nil {
		stats := selfTimes(r.tr.Spans())
		r.set("serve.submit_handler_us", stats["serve.POST /v1/jobs"].MeanUs())
		r.set("serve.outcome_handler_us", stats["serve.GET /v1/jobs/{id}/outcome"].MeanUs())
		r.set("serve.submit_http_us", stats["client.POST /v1/jobs"].SelfUs())
		r.set("studycli.decode_build_us", decodeBuildUs(r.tr, jobs))
	}
	return nil
}

// openLoop sends the scheduled jobs over clientConns connections: a
// sender takes the next job in schedule order and sends it when due, or
// at once when it is already late. Latency counts from the due time, so
// a stall shows in every job it delays.
func (s *serveInst) openLoop(tr *Tracer, jobs []serveJob, start time.Time) ([]jobRecord, []error) {
	recs := make([]jobRecord, len(jobs))
	errs := make([]error, len(jobs))
	forEach(0, len(jobs), clientConns, func(i int) {
		due := start.Add(jobs[i].due)
		time.Sleep(time.Until(due))
		recs[i], errs[i] = s.job(context.Background(), tr, jobs[i].body, fmt.Sprintf("job-%d", i), due)
	})
	return recs, errs
}

// closedLoop submits the burst recipes over clientConns clients in
// rounds, and returns the jobs and the time the rounds took.
func (s *serveInst) closedLoop(r *runner, sz sizes, base []studycli.Config) ([]jobRecord, []error, time.Duration, error) {
	recs := make([]jobRecord, sz.Burst)
	errs := make([]error, sz.Burst)
	var busy time.Duration
	for lo := 0; lo < sz.Burst; lo += burstRound {
		if err := r.calibrate(); err != nil {
			return nil, nil, 0, err
		}
		t0 := time.Now()
		forEach(lo, min(lo+burstRound, sz.Burst), clientConns, func(i int) {
			recs[i], errs[i] = s.job(context.Background(), r.tr, burstRecipe(r.seed, sz, base, i), fmt.Sprintf("burst-%d", i), time.Now())
		})
		busy += time.Since(t0)
	}
	return recs, errs, busy, nil
}

// checkServeBytes holds the cache's promise: every completion of one
// recipe — the cold run and each later hit — returned the same outcome
// bytes, and every hit has a cold completion to match.
func checkServeBytes(r *runner, recs []jobRecord) {
	first := map[string]string{}
	for _, rec := range recs {
		if !rec.ok || rec.hit {
			continue
		}
		key := string(rec.body)
		if d, ok := first[key]; !ok {
			first[key] = rec.digest
		} else if d != rec.digest {
			r.problem("two cold runs of one recipe returned different outcomes: %s", rec.body)
		}
	}
	for _, rec := range recs {
		if !rec.ok || !rec.hit {
			continue
		}
		if d, ok := first[string(rec.body)]; !ok {
			r.problem("cache hit without a cold completion of its recipe: %s", rec.body)
		} else if d != rec.digest {
			r.problem("cache hit returned different bytes from the cold run of %s", rec.body)
		}
	}
}

// decodeBuildUs times the recipe boundary every submission crosses:
// strict decoding and building the study, over the distinct recipes.
func decodeBuildUs(tr *Tracer, jobs []serveJob) float64 {
	seen := map[string]bool{}
	var total time.Duration
	n := 0
	for _, j := range jobs {
		if seen[string(j.body)] {
			continue
		}
		seen[string(j.body)] = true
		t0 := time.Now()
		c, err := studycli.DecodeConfig(j.body)
		if err == nil {
			_, err = c.Build()
		}
		t1 := time.Now()
		if err != nil {
			continue // the job itself reported the refusal
		}
		tr.Add(0, 0, "studycli.DecodeConfig+Build", "", t0, t1)
		total += t1.Sub(t0)
		n++
	}
	return ratio(us(total), float64(n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
