package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pnps/internal/batch"
	"pnps/internal/coord"
	"pnps/internal/study"
	"pnps/internal/studycli"
)

const (
	// studyTimeout bounds one coordinated study; the window's studies
	// take seconds.
	studyTimeout = 2 * time.Minute
	// journalReplayMax bounds the fsync-always journal replay.
	journalReplayMax = 128
	// compareEvery selects the studies checked against a local run.
	compareEvery = 4
)

// coordInst is the fleet's fixed part: a loopback listener whose
// handler is swapped to each study's coordinator, and the transport the
// workers share, capped at clientConns connections.
type coordInst struct {
	hs        *http.Server
	served    chan struct{}
	url       string
	front     atomic.Pointer[http.Handler]
	transport *http.Transport
	dir       string
}

func (ci *coordInst) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	h := ci.front.Load()
	if h == nil {
		http.Error(w, "no study", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, req)
}

func startCoord(dir string) (*coordInst, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ci := &coordInst{
		served:    make(chan struct{}),
		url:       "http://" + ln.Addr().String(),
		transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns},
		dir:       dir,
	}
	ci.hs = &http.Server{Handler: ci}
	go func() {
		defer close(ci.served)
		ci.hs.Serve(ln)
	}()
	return ci, nil
}

func (ci *coordInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ci.hs.Shutdown(ctx)
	<-ci.served
	ci.transport.CloseIdleConnections()
	os.RemoveAll(ci.dir)
}

// fleetStudy is one completed coordinated study.
type fleetStudy struct {
	cfg     studycli.Config
	tasks   int
	chunks  int
	outcome []byte       // the coordinator's outcome JSON
	spies   []*workerSpy // one per worker
}

// runStudy coordinates one study over clientConns in-process workers,
// one simulation worker each, with an fsync-always journal.
func (ci *coordInst) runStudy(tr *Tracer, cfg studycli.Config, chunkSize, k int) (*fleetStudy, error) {
	st, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	recipe, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(ci.dir, fmt.Sprintf("study-%d.journal", k))
	srv, err := coord.NewServer(coord.Config{
		Study: st, ChunkSize: chunkSize, Recipe: recipe,
		JournalPath: journal, JournalSync: coord.SyncAlways,
	})
	if err != nil {
		return nil, err
	}
	defer os.Remove(journal)
	defer srv.Close()
	h := serverSpans(tr, "coord", srv.Handler())
	ci.front.Store(&h)
	defer ci.front.Store(nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fs := &fleetStudy{cfg: cfg, tasks: srv.Info().TotalTasks, chunks: srv.Info().NumChunks}
	errs := make([]error, clientConns)
	var wg sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		spy := &workerSpy{base: ci.transport, tr: tr, capture: tr != nil && k == 0}
		fs.spies = append(fs.spies, spy)
		wk := &coord.Worker{
			URL: ci.url, Name: "worker-" + strconv.Itoa(w),
			BuildStudy: func(raw json.RawMessage) (study.Study, error) {
				c, err := studycli.DecodeConfig(raw)
				if err != nil {
					return study.Study{}, err
				}
				return c.Build()
			},
			Workers: 1, RetrySeed: int64(w + 1),
			HTTP: &http.Client{Transport: spy, Timeout: time.Minute},
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spy.begin(time.Now())
			errs[w] = wk.Run(ctx)
			spy.finish(time.Now(), fmt.Sprintf("study-%d/%s", k, wk.Name))
		}(w)
	}
	select {
	case <-srv.Done():
	case <-time.After(studyTimeout):
	}
	// The study is over: release a worker parked on an idle lease poll.
	cancel()
	wg.Wait()
	out, err := srv.Outcome()
	if err != nil {
		return nil, fmt.Errorf("study %d: %w", k, err)
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, fmt.Errorf("study %d worker: %w", k, err)
		}
	}
	if fs.outcome, err = outcomeJSON(out); err != nil {
		return nil, err
	}
	return fs, nil
}

// workerSpy is one worker's transport. The worker reads every response
// in full, so the spy does the same to learn lease grants and submit
// verdicts: it times each chunk from lease grant to accepted submit and
// counts idle leases. Traced, it records the worker's timeline: a
// client span per exchange (the server's span nests under it) and the
// gaps between exchanges, as compute after a granted lease or at start
// and as idle wait after a lease that granted nothing. A worker is
// sequential, so the spy needs no lock.
type workerSpy struct {
	base    http.RoundTripper
	tr      *Tracer
	capture bool // keep submission bodies for the codec replay

	root             int64
	start, lastEnd   time.Time
	idleNext, leased bool
	leaseAt          time.Time

	chunkMs, computeMs  []float64
	idle, wall          time.Duration
	idleLeases, submits int
	accepted            int
	submissions         [][]byte
}

func (s *workerSpy) begin(t time.Time) {
	s.root = s.tr.NewID()
	s.start, s.lastEnd = t, t
}

func (s *workerSpy) finish(t time.Time, req string) {
	s.gap(t)
	s.wall = t.Sub(s.start)
	s.tr.Add(s.root, 0, "worker", req, s.start, t)
}

func (s *workerSpy) gap(now time.Time) {
	d := now.Sub(s.lastEnd)
	if d <= 0 {
		return
	}
	name := "worker.compute"
	switch {
	case s.idleNext:
		name = "worker.idle"
		s.idle += d
	case s.leased:
		s.computeMs = append(s.computeMs, ms(d))
	}
	s.tr.Add(0, s.root, name, "", s.lastEnd, now)
}

func (s *workerSpy) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	s.gap(start)
	route := routeOf(req.Method, req.URL.Path)
	id := s.tr.NewID()
	if s.tr != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		if s.capture && route == "POST /v1/chunks" {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				return nil, err
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
			s.submissions = append(s.submissions, body)
		}
	}
	resp, err := s.base.RoundTrip(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
	}
	end := time.Now()
	s.tr.Add(id, s.root, "client."+route, "", start, end)
	s.lastEnd, s.idleNext = end, false
	if err != nil {
		return nil, err
	}
	switch route {
	case "POST /v1/lease":
		var l coord.Lease
		if json.Unmarshal(data, &l) == nil && l.Granted {
			s.leased, s.leaseAt = true, end
		} else if !l.Done {
			s.idleLeases++
			s.idleNext = true
		}
	case "POST /v1/chunks":
		s.submits++
		var res coord.SubmitResult
		if resp.StatusCode == http.StatusOK && json.Unmarshal(data, &res) == nil && res.Accepted {
			s.accepted++
			if s.leased {
				s.chunkMs = append(s.chunkMs, ms(end.Sub(s.leaseAt)))
			}
		}
		s.leased = false
	}
	return resp, nil
}

func runCoord(r *runner, sz sizes) error {
	recipe := func(seed int64, reps int) studycli.Config {
		return stressRecipe(seed, sz.Duration, reps)
	}
	setups := 0
	// Set-up: listener, server and transport, then one 1/16-size warm-up
	// study through the whole fleet path.
	ci, err := measureSetup(r, func() (*coordInst, error) {
		setups++
		ci, err := startCoord(filepath.Join(r.tmp, "coord-"+strconv.Itoa(setups)))
		if err != nil {
			return nil, err
		}
		if _, err := ci.runStudy(nil, recipe(warmSeed, max(1, sz.Reps/16)), sz.ChunkSize, -1); err != nil {
			ci.close()
			return nil, err
		}
		return ci, nil
	}, func(ci *coordInst) { ci.close() })
	if err != nil {
		return err
	}
	defer ci.close()

	var studies []*fleetStudy
	var busy time.Duration
	rt0 := readRuntime()
	start := r.openWindow()
	for k := 0; k == 0 || time.Since(start) < r.window; k++ {
		if err := r.calibrate(); err != nil {
			return err
		}
		t0 := time.Now()
		fs, err := ci.runStudy(r.tr, recipe(batch.Seed(r.seed, k), sz.Reps), sz.ChunkSize, k)
		if err != nil {
			return err
		}
		busy += time.Since(t0)
		studies = append(studies, fs)
	}
	r.closeWindow()
	rt1 := readRuntime()
	slow := r.slowdown()

	var (
		chunkMs, computeMs           []float64
		tasks, chunks                int
		idleLeases, submits, accepts int
		idle, wall                   time.Duration
	)
	for _, fs := range studies {
		tasks += fs.tasks
		chunks += fs.chunks
		for _, s := range fs.spies {
			chunkMs = append(chunkMs, s.chunkMs...)
			computeMs = append(computeMs, s.computeMs...)
			idleLeases += s.idleLeases
			submits += s.submits
			accepts += s.accepted
			idle += s.idle
			wall += s.wall
		}
	}
	r.attempted = chunks
	lat := summarise(scale(chunkMs, 1/slow))
	r.set("runs_per_s", float64(tasks)/busy.Seconds()*slow)
	r.set("job_p50_ms", lat.P50)
	r.set("job_mean_ms", lat.Mean)
	r.set("job_p99_ms", lat.Tail)
	r.set("job_samples", float64(lat.N))
	r.set("runtime.gc_cpu_share", gcShare(rt0, rt1))
	r.set("study.runchunk_ms", mean(computeMs))
	r.set("coord.idle_leases_per_chunk", ratio(float64(idleLeases), float64(accepts)))
	r.set("coord.idle_wait_share", ratio(float64(idle), float64(wall)))
	r.set("coord.submit_accept_ratio", ratio(float64(accepts), float64(submits)))

	// Coordinated outcomes must be byte-equal to a local run. Checking
	// every study would re-simulate the whole window, so every
	// compareEvery-th study and the last one are checked.
	for k, fs := range studies {
		if k%compareEvery != 0 && k != len(studies)-1 {
			continue
		}
		st, err := buildStudy(fs.cfg, simWorkers)
		if err != nil {
			return err
		}
		out, err := st.Run(context.Background())
		if err != nil {
			return err
		}
		local, err := outcomeJSON(out)
		if err != nil {
			return err
		}
		if !bytes.Equal(local, fs.outcome) {
			r.problem("coordinated study %d outcome differs from a local Study.Run", k)
		}
	}
	if r.tr != nil {
		return coordLayers(r, studies[0], sz.ChunkSize)
	}
	return nil
}

// coordLayers derives the coordinator's per-layer metrics from the
// spans, then replays the first study's captured submissions through
// the checkpoint codec, a Folder and the journal under both sync
// policies, timing each call.
func coordLayers(r *runner, fs *fleetStudy, chunkSize int) error {
	spans := r.tr.Spans()
	stats := selfTimes(spans)
	r.set("coord.lease_rtt_ms", stats["client.POST /v1/lease"].MeanMs())
	r.set("coord.submit_rtt_ms", stats["client.POST /v1/chunks"].MeanMs())
	r.set("coord.lease_handler_us", stats["coord.POST /v1/lease"].MeanUs())
	r.set("coord.submit_handler_ms", stats["coord.POST /v1/chunks"].MeanMs())

	// A worker's client spans, compute and idle gaps tile its wall time.
	workers := map[int64]bool{}
	var wall, tiled int64
	for _, s := range spans {
		if s.Name == "worker" {
			workers[s.ID] = true
			wall += s.End - s.Start
		}
	}
	for _, s := range spans {
		if workers[s.Parent] {
			tiled += s.End - s.Start
		}
	}
	coverage := ratio(float64(tiled), float64(wall))
	r.set("coord.span_coverage", coverage)
	if coverage < 0.95 || coverage > 1.05 {
		r.problem("worker spans cover %.3f of worker wall time, want 1 ± 0.05", coverage)
	}

	st, err := fs.cfg.Build()
	if err != nil {
		return err
	}
	type captured struct {
		sub coord.Submission
		cp  *study.Checkpoint
	}
	byChunk := map[int]captured{}
	var decode, encode time.Duration
	var size int
	for _, s := range fs.spies {
		for _, body := range s.submissions {
			var sub coord.Submission
			if err := json.Unmarshal(body, &sub); err != nil {
				return fmt.Errorf("captured submission: %w", err)
			}
			if _, dup := byChunk[sub.Chunk]; dup {
				continue
			}
			t0 := time.Now()
			cp, err := study.ReadCheckpoint(bytes.NewReader(sub.Checkpoint))
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("captured checkpoint: %w", err)
			}
			var buf bytes.Buffer
			if err := cp.WriteJSON(&buf); err != nil {
				return err
			}
			t2 := time.Now()
			r.tr.Add(0, 0, "study.ReadCheckpoint", "", t0, t1)
			r.tr.Add(0, 0, "study.Checkpoint.WriteJSON", "", t1, t2)
			decode += t1.Sub(t0)
			encode += t2.Sub(t1)
			size += len(sub.Checkpoint)
			byChunk[sub.Chunk] = captured{sub, cp}
		}
	}
	order := make([]int, 0, len(byChunk))
	for c := range byChunk {
		order = append(order, c)
	}
	sort.Ints(order)
	n := float64(len(order))
	r.set("study.checkpoint_bytes", ratio(float64(size), n))
	r.set("study.checkpoint_decode_us", ratio(us(decode), n))
	r.set("study.checkpoint_encode_us", ratio(us(encode), n))

	folder, err := st.NewFolder(chunkSize)
	if err != nil {
		return err
	}
	var fold time.Duration
	for _, c := range order {
		t0 := time.Now()
		err := folder.Fold(c, byChunk[c].cp)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("replaying fold of chunk %d: %w", c, err)
		}
		r.tr.Add(0, 0, "study.Folder.Fold", "", t0, t1)
		fold += t1.Sub(t0)
	}
	r.set("study.fold_us", ratio(us(fold), n))
	if out, err := folder.Outcome(); err != nil {
		r.problem("replayed fold of the captured submissions: %v", err)
	} else if raw, err := outcomeJSON(out); err != nil || !bytes.Equal(raw, fs.outcome) {
		r.problem("replayed fold of the captured submissions differs from the coordinator's outcome")
	}

	fp, err := st.Fingerprint()
	if err != nil {
		return err
	}
	for _, policy := range []coord.SyncPolicy{coord.SyncAlways, coord.SyncOff} {
		path := filepath.Join(r.tmp, "replay-"+policy.String()+".journal")
		j, _, err := coord.OpenJournal(path, fp, folder.TotalTasks(), chunkSize, folder.NumChunks(), policy)
		if err != nil {
			return err
		}
		var appends time.Duration
		count := 0
		for _, c := range order {
			if policy == coord.SyncAlways && count == journalReplayMax {
				break
			}
			sub := byChunk[c].sub
			t0 := time.Now()
			err := j.Append(coord.JournalRecord{Chunk: sub.Chunk, LeaseID: sub.LeaseID, Worker: sub.Worker, Checkpoint: sub.Checkpoint})
			t1 := time.Now()
			if err != nil {
				j.Close()
				return err
			}
			r.tr.Add(0, 0, "coord.Journal.Append/"+policy.String(), "", t0, t1)
			appends += t1.Sub(t0)
			count++
		}
		if err := j.Close(); err != nil {
			return err
		}
		os.Remove(path)
		name := "coord.journal_append_us"
		if policy == coord.SyncOff {
			name = "coord.journal_append_nosync_us"
		}
		r.set(name, ratio(us(appends), float64(count)))
	}
	return nil
}
