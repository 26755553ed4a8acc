package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pnps/internal/study"
	"pnps/internal/studycli"
)

// testRecipe is the study the coordinator tests run: 2 storage × 2
// utilisation cells × 2 reps = 8 ledger tasks of a short cloud-stressed
// scenario, dwell histogram on. Built through studycli.Config so the
// tests exercise the exact recipe round-trip workers use in production.
func testRecipe() studycli.Config {
	return studycli.Config{
		Scenario: "stress-clouds", Duration: 12,
		Storage: "ideal:0.047,supercap:0.047", Util: "1,0.6",
		Reps: 2, Seed: 23,
		Bins: 32, HistLo: 4, HistHi: 6,
	}
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	recipe := testRecipe()
	st, err := recipe.Build()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(recipe)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Study = st
	cfg.Recipe = raw
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildFromRecipe(raw json.RawMessage) (study.Study, error) {
	var c studycli.Config
	if err := json.Unmarshal(raw, &c); err != nil {
		return study.Study{}, err
	}
	return c.Build()
}

// sameOutcome asserts two outcomes are bit-identical: the full exported
// aggregate byte for byte (Go serialises float64 losslessly), plus the
// raw dwell histogram bins the export summarises away.
func sameOutcome(t *testing.T, label string, a, b *study.StudyOutcome) {
	t.Helper()
	var ja, jb bytes.Buffer
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("%s: exported aggregates diverged:\n%s\nvs\n%s", label, ja.String(), jb.String())
	}
	switch {
	case a.VCHistogram == nil && b.VCHistogram == nil:
	case a.VCHistogram == nil || b.VCHistogram == nil:
		t.Fatalf("%s: one outcome lost its histogram", label)
	default:
		if a.VCHistogram.Total() != b.VCHistogram.Total() {
			t.Fatalf("%s: histogram totals diverged", label)
		}
		for i, w := range a.VCHistogram.Bins {
			if b.VCHistogram.Bins[i] != w {
				t.Fatalf("%s: histogram bin %d diverged", label, i)
			}
		}
	}
}

// TestCoordinatorEndToEnd is the acceptance test: a study executed
// through the coordinator by three workers — one of which leases a
// chunk and dies without submitting, forcing an expiry and re-lease —
// produces a StudyOutcome bit-identical to a single-process Study.Run.
func TestCoordinatorEndToEnd(t *testing.T) {
	refStudy, err := testRecipe().Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refStudy.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var chunkEvents int
	var evMu sync.Mutex
	s := testServer(t, Config{
		ChunkSize: 2, LeaseTTL: 200 * time.Millisecond,
		Backoff: time.Millisecond, MaxAttempts: 5,
		Logf: t.Logf,
		OnChunk: func(st Status) {
			evMu.Lock()
			defer evMu.Unlock()
			chunkEvents++
			if st.FoldedTasks > 0 && len(st.Marginals) == 0 {
				t.Error("OnChunk status carries folded tasks but no live marginals")
			}
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// The casualty: lease a chunk and vanish. Its lease must expire and
	// the chunk be re-run by a surviving worker.
	var dead Lease
	if _, err := (&Worker{URL: srv.URL}).doJSON(context.Background(),
		http.MethodPost, "/v1/lease", LeaseRequest{Worker: "casualty"}, &dead); err != nil {
		t.Fatal(err)
	}
	if !dead.Granted {
		t.Fatalf("casualty got no lease: %+v", dead)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		w := &Worker{
			URL: srv.URL, Name: fmt.Sprintf("worker-%d", i),
			BuildStudy: buildFromRecipe, Workers: 1, Logf: t.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- w.Run(ctx)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	select {
	case <-s.Done():
	default:
		t.Fatal("workers exited but coordinator is not done")
	}
	got, err := s.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "coordinated run", ref, got)

	st := s.Status()
	if !st.Done || st.FoldedTasks != st.TotalTasks || st.DoneChunks != st.TotalChunks {
		t.Fatalf("final status not complete: %+v", st)
	}
	evMu.Lock()
	if chunkEvents != st.TotalChunks {
		t.Errorf("OnChunk fired %d times, want %d", chunkEvents, st.TotalChunks)
	}
	evMu.Unlock()

	// The HTTP outcome endpoint serves the same bytes the reference
	// exports.
	resp, err := http.Get(srv.URL + "/v1/outcome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var want, body bytes.Buffer
	if err := ref.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body.Bytes(), want.Bytes()) {
		t.Fatalf("GET /v1/outcome = HTTP %d, diverges from reference export", resp.StatusCode)
	}
}

// leaseAndRun grants a lease directly and executes its chunk, returning
// the lease and serialised checkpoint — the raw material the hostile
// submission tests corrupt.
func leaseAndRun(t *testing.T, s *Server, worker string) (Lease, *study.Checkpoint) {
	t.Helper()
	lease := s.lease(worker)
	if !lease.Granted {
		t.Fatalf("no lease for %s: %+v", worker, lease)
	}
	cp, err := s.cfg.Study.RunChunk(context.Background(), lease.Range)
	if err != nil {
		t.Fatal(err)
	}
	return lease, cp
}

func submission(t *testing.T, worker string, chunk int, leaseID string, cp *study.Checkpoint) Submission {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return Submission{Worker: worker, Chunk: chunk, LeaseID: leaseID, Checkpoint: buf.Bytes()}
}

// TestCoordinatorRejectsHostileSubmissions: corrupt checkpoints, wrong
// fingerprints and stale leases are refused with the right status codes,
// and a refused chunk can still be completed by a good submission on the
// same lease.
func TestCoordinatorRejectsHostileSubmissions(t *testing.T) {
	s := testServer(t, Config{ChunkSize: 2, Logf: t.Logf})
	lease, cp := leaseAndRun(t, s, "tester")

	// Structurally corrupt checkpoint: duplicate ledger index.
	corrupt := *cp
	corrupt.Records = append([]study.TaskRecord(nil), cp.Records...)
	corrupt.Records[1].Index = corrupt.Records[0].Index
	bad := submission(t, "tester", lease.Chunk, lease.LeaseID, &corrupt)
	if code, res := s.submit(bad); code != http.StatusUnprocessableEntity || !strings.Contains(res.Error, "duplicate") {
		t.Fatalf("corrupt checkpoint: HTTP %d %q, want 422 duplicate-index error", code, res.Error)
	}

	// A valid checkpoint of a different study: rejected on fingerprint.
	foreignRecipe := testRecipe()
	foreignRecipe.Seed++
	foreignStudy, err := foreignRecipe.Build()
	if err != nil {
		t.Fatal(err)
	}
	fcp, err := foreignStudy.RunChunk(context.Background(), lease.Range)
	if err != nil {
		t.Fatal(err)
	}
	foreign := submission(t, "tester", lease.Chunk, lease.LeaseID, fcp)
	if code, res := s.submit(foreign); code != http.StatusUnprocessableEntity || !strings.Contains(res.Error, "fingerprint") {
		t.Fatalf("foreign checkpoint: HTTP %d %q, want 422 fingerprint error", code, res.Error)
	}

	// Wrong lease id, bad chunk index, missing checkpoint.
	if code, _ := s.submit(submission(t, "tester", lease.Chunk, "lease-0-stolen", cp)); code != http.StatusConflict {
		t.Fatalf("stolen lease id: HTTP %d, want 409", code)
	}
	if code, _ := s.submit(submission(t, "tester", 99, lease.LeaseID, cp)); code != http.StatusBadRequest {
		t.Fatalf("chunk out of range: HTTP %d, want 400", code)
	}
	if code, _ := s.submit(Submission{Worker: "tester", Chunk: lease.Chunk, LeaseID: lease.LeaseID}); code != http.StatusBadRequest {
		t.Fatalf("empty checkpoint: HTTP %d, want 400", code)
	}

	// None of the refusals consumed the lease or corrupted the folder:
	// the genuine checkpoint still lands, exactly once.
	if code, res := s.submit(submission(t, "tester", lease.Chunk, lease.LeaseID, cp)); code != http.StatusOK || !res.Accepted {
		t.Fatalf("genuine submission after refusals: HTTP %d %q", code, res.Error)
	}
	// A replay on the completing lease (lost 200) is acknowledged
	// idempotently; a different lease id for a folded chunk still 409s.
	if code, res := s.submit(submission(t, "tester", lease.Chunk, lease.LeaseID, cp)); code != http.StatusOK || !res.Accepted || !res.Duplicate {
		t.Fatalf("replayed submission: HTTP %d %+v, want idempotent 200 duplicate", code, res)
	}
	if code, res := s.submit(submission(t, "tester", lease.Chunk, "lease-9-chunk-0-attempt-9", cp)); code != http.StatusConflict || !strings.Contains(res.Error, "already folded") {
		t.Fatalf("foreign-lease duplicate submission: HTTP %d %q, want 409 already-folded", code, res.Error)
	}
	if got := s.Status(); got.FoldedTasks != 2 || got.DoneChunks != 1 {
		t.Fatalf("status after one chunk: %+v", got)
	}
}

// TestDuplicateAndStaleSubmissions pins the two lost-response shapes a
// hostile network produces — a worker replaying a submission whose 200
// vanished, and a presumed-dead worker's submission landing after its
// chunk was re-leased and completed by someone else — and asserts both
// leave the folder state and the final outcome exactly unchanged.
func TestDuplicateAndStaleSubmissions(t *testing.T) {
	refStudy, err := testRecipe().Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refStudy.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	now := time.Unix(1700000000, 0)
	s := testServer(t, Config{
		ChunkSize: 2, LeaseTTL: time.Minute, Backoff: time.Millisecond,
		Logf: t.Logf, now: func() time.Time { return now },
	})

	// Lost 200: the same lease submits its chunk three times. One fold,
	// three acknowledgements.
	lease, cp := leaseAndRun(t, s, "flaky-net")
	for i := 0; i < 3; i++ {
		code, res := s.submit(submission(t, "flaky-net", lease.Chunk, lease.LeaseID, cp))
		if code != http.StatusOK || !res.Accepted {
			t.Fatalf("submit replay %d: HTTP %d %q", i, code, res.Error)
		}
		if wantDup := i > 0; res.Duplicate != wantDup {
			t.Fatalf("submit replay %d: duplicate=%v, want %v", i, res.Duplicate, wantDup)
		}
		if st := s.Status(); st.DoneChunks != 1 || st.FoldedTasks != 2 {
			t.Fatalf("replay %d disturbed the fold: %+v", i, st)
		}
	}

	// Two workers lease the next two chunks and go quiet; both leases
	// expire together. "slow" (chunk 1) will see its chunk re-leased but
	// not yet re-folded when its submission lands; "presumed-dead"
	// (chunk 2) will see its chunk re-leased *and* re-folded.
	race, raceCP := leaseAndRun(t, s, "slow")
	stale, staleCP := leaseAndRun(t, s, "presumed-dead")
	now = now.Add(2 * time.Minute) // both leases expire

	// The first post-expiry lease call reclaims both chunks into their
	// backoff window and grants the untouched chunk 3 instead.
	side := s.lease("w3")
	if !side.Granted || side.Chunk == race.Chunk || side.Chunk == stale.Chunk {
		t.Fatalf("lease during reclaim backoff: %+v", side)
	}
	sideCP, err := s.cfg.Study.RunChunk(context.Background(), side.Range)
	if err != nil {
		t.Fatal(err)
	}
	if code, res := s.submit(submission(t, "w3", side.Chunk, side.LeaseID, sideCP)); code != http.StatusOK {
		t.Fatalf("side-chunk submit: HTTP %d %q", code, res.Error)
	}

	now = now.Add(2 * time.Second) // past the attempt-scaled backoff

	// Chunk 1 re-leases to w3; the old worker's submission crawls in
	// before w3 finishes: refused as superseded, not folded twice.
	release := s.lease("w3")
	if !release.Granted || release.Chunk != race.Chunk || release.LeaseID == race.LeaseID {
		t.Fatalf("re-lease of the raced chunk: %+v (stale %+v)", release, race)
	}
	if code, res := s.submit(submission(t, "slow", race.Chunk, race.LeaseID, raceCP)); code != http.StatusConflict || !strings.Contains(res.Error, "superseded") {
		t.Fatalf("stale submission racing re-lease: HTTP %d %q, want 409 superseded", code, res.Error)
	}
	recp, err := s.cfg.Study.RunChunk(context.Background(), release.Range)
	if err != nil {
		t.Fatal(err)
	}
	if code, res := s.submit(submission(t, "w3", release.Chunk, release.LeaseID, recp)); code != http.StatusOK || !res.Accepted {
		t.Fatalf("winning submission after stale race: HTTP %d %q", code, res.Error)
	}

	// Chunk 2 re-leases to w2 and is re-folded; only then does the dead
	// worker's submission arrive: refused as already folded.
	release2 := s.lease("w2")
	if !release2.Granted || release2.Chunk != stale.Chunk || release2.LeaseID == stale.LeaseID {
		t.Fatalf("re-lease of the dead worker's chunk: %+v (stale %+v)", release2, stale)
	}
	recp2, err := s.cfg.Study.RunChunk(context.Background(), release2.Range)
	if err != nil {
		t.Fatal(err)
	}
	if code, res := s.submit(submission(t, "w2", release2.Chunk, release2.LeaseID, recp2)); code != http.StatusOK || !res.Accepted {
		t.Fatalf("re-leased chunk submission: HTTP %d %q", code, res.Error)
	}
	if code, res := s.submit(submission(t, "presumed-dead", stale.Chunk, stale.LeaseID, staleCP)); code != http.StatusConflict || !strings.Contains(res.Error, "already folded") {
		t.Fatalf("stale submission after re-lease + fold: HTTP %d %q, want 409", code, res.Error)
	}
	if st := s.Status(); st.DoneChunks != 4 || st.FoldedTasks != 8 {
		t.Fatalf("stale submissions disturbed the fold: %+v", st)
	}
	got, err := s.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "duplicate/stale-battered run", ref, got)
}

// TestLeaseStateMachine drives expiry, backoff and attempt exhaustion
// with a fake clock: an expired lease re-queues behind attempt-scaled
// backoff, its stale lease id is refused, and exhausting MaxAttempts
// fails the study.
func TestLeaseStateMachine(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	s := testServer(t, Config{
		ChunkSize: 8, // single chunk: the whole 8-task ledger
		LeaseTTL:  time.Minute, Backoff: time.Second, MaxAttempts: 2,
		Logf: t.Logf, now: clock,
	})

	first := s.lease("w1")
	if !first.Granted || first.Attempt != 1 {
		t.Fatalf("first lease: %+v", first)
	}
	if l := s.lease("w2"); l.Granted || l.RetryAfterMS <= 0 || l.RetryAfterMS > time.Minute.Milliseconds() {
		t.Fatalf("second lease while chunk held: %+v", l)
	}

	// TTL passes: the chunk re-queues but backs off before re-lease.
	now = now.Add(2 * time.Minute)
	if l := s.lease("w2"); l.Granted || l.RetryAfterMS > time.Second.Milliseconds() {
		t.Fatalf("lease during backoff window: %+v", l)
	}
	now = now.Add(2 * time.Second)
	second := s.lease("w2")
	if !second.Granted || second.Attempt != 2 || second.LeaseID == first.LeaseID {
		t.Fatalf("re-lease after expiry: %+v", second)
	}

	// The dead worker's submission arrives late: refused, chunk intact.
	cp, err := s.cfg.Study.RunChunk(context.Background(), first.Range)
	if err != nil {
		t.Fatal(err)
	}
	if code, res := s.submit(submission(t, "w1", first.Chunk, first.LeaseID, cp)); code != http.StatusConflict || !strings.Contains(res.Error, "superseded") {
		t.Fatalf("stale lease submission: HTTP %d %q", code, res.Error)
	}

	// Second lease expires too. The expiry re-queues the chunk behind
	// its backoff; once that passes, MaxAttempts is exhausted and the
	// study fails rather than spinning on a poisoned chunk.
	now = now.Add(2 * time.Minute)
	if l := s.lease("w3"); l.Granted || l.Done {
		t.Fatalf("lease during second backoff window: %+v", l)
	}
	now = now.Add(3 * time.Second)
	fail := s.lease("w3")
	if !fail.Done || !strings.Contains(fail.Failed, "exhausted") {
		t.Fatalf("lease after attempt exhaustion: %+v", fail)
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("Done not closed on study failure")
	}
	if _, err := s.Outcome(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("Outcome after failure = %v", err)
	}
	if st := s.Status(); !st.Done || !strings.Contains(st.Failed, "exhausted") {
		t.Fatalf("status after failure: %+v", st)
	}
}

// TestExpiredButUnclaimedLeaseAccepted: a straggler whose lease expired
// but whose chunk nobody re-claimed still lands its result — the work is
// done and valid; wasting a re-run would be pure loss.
func TestExpiredButUnclaimedLeaseAccepted(t *testing.T) {
	now := time.Unix(1700000000, 0)
	s := testServer(t, Config{
		ChunkSize: 8, LeaseTTL: time.Minute,
		Logf: t.Logf, now: func() time.Time { return now },
	})
	lease, cp := leaseAndRun(t, s, "straggler")
	now = now.Add(time.Hour) // long past expiry; nobody re-leased it
	if code, res := s.submit(submission(t, "straggler", lease.Chunk, lease.LeaseID, cp)); code != http.StatusOK || !res.Accepted {
		t.Fatalf("expired-but-unclaimed submission: HTTP %d %q", code, res.Error)
	}
	if out, err := s.Outcome(); err != nil || out == nil {
		t.Fatalf("single-chunk study not complete after fold: %v", err)
	}
}

// TestWorkerRefusesFingerprintSkew: a worker whose local build disagrees
// with the coordinator's fingerprint must refuse to run rather than
// submit subtly wrong results.
func TestWorkerRefusesFingerprintSkew(t *testing.T) {
	s := testServer(t, Config{ChunkSize: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	w := &Worker{
		URL: srv.URL, Name: "skewed",
		BuildStudy: func(raw json.RawMessage) (study.Study, error) {
			var c studycli.Config
			if err := json.Unmarshal(raw, &c); err != nil {
				return study.Study{}, err
			}
			c.Seed++ // simulated flag skew between machines
			return c.Build()
		},
	}
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("skewed worker ran: %v", err)
	}
	if st := s.Status(); st.FoldedTasks != 0 {
		t.Fatalf("skewed worker folded tasks: %+v", st)
	}
}
