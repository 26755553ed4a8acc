package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"pnps/internal/study"
)

// Worker is the client side of the coordinator protocol: the loop
// behind `pnstudy -worker <url>`. It fetches the coordinator's study
// recipe, rebuilds the study locally, refuses to run if the local
// fingerprint disagrees with the coordinator's (flag or code skew
// between machines), then leases chunks, executes them through one
// study.RunStore per joined study (which shares each cell's cloud-free
// run across the chunks) and submits the checkpoints until the study
// is done.
type Worker struct {
	// URL is the coordinator's base URL (e.g. http://host:9old77).
	URL string
	// Name identifies the worker in leases and logs (default host:pid).
	Name string
	// BuildStudy rebuilds the study from the coordinator's recipe —
	// typically studycli.Config via json.Unmarshal + Build.
	BuildStudy func(recipe json.RawMessage) (study.Study, error)
	// Workers bounds per-chunk run concurrency (0 keeps the study's
	// setting, which defaults to GOMAXPROCS).
	Workers int
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// Logf, when non-nil, receives progress diagnostics.
	Logf func(format string, args ...any)
	// MaxChunks, when positive, exits cleanly after that many accepted
	// submissions — bounded-budget workers, and the lever integration
	// tests use to make a worker disappear mid-study.
	MaxChunks int
	// RetryBase is the first transport-retry delay (default 250ms); each
	// further attempt doubles it up to RetryCap (default 10s), and the
	// actual wait is jittered uniformly over [d/2, d) so a worker fleet
	// knocked over by one coordinator outage does not stampede back in
	// lockstep.
	RetryBase time.Duration
	// RetryCap bounds a single retry delay (default 10s).
	RetryCap time.Duration
	// RetryAttempts bounds tries per request (default 5): one initial
	// attempt plus RetryAttempts-1 retries of network or 5xx failures.
	RetryAttempts int
	// RetrySeed seeds the jitter stream (0 derives one from the worker
	// name) — deterministic so fault-injection schedules replay exactly.
	RetrySeed int64
	// Token, when non-empty, is presented as "Authorization: Bearer
	// <token>" on every request — the client side of the shared
	// RequireBearer middleware on coordinators exposed to untrusted
	// networks. An authentication refusal is a 4xx and therefore
	// terminal, not retried.
	Token string

	rngOnce sync.Once
	rng     *rand.Rand
	rngMu   sync.Mutex
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// defaultClient bounds every exchange: a coordinator that accepts the
// connection and then hangs must not wedge the worker forever — the
// timeout surfaces as a retryable transport error instead.
var defaultClient = &http.Client{Timeout: 2 * time.Minute}

func (w *Worker) client() *http.Client {
	if w.HTTP != nil {
		return w.HTTP
	}
	return defaultClient
}

func (w *Worker) name() string {
	if w.Name != "" {
		return w.Name
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// Run executes the worker loop until the coordinator reports the study
// done, ctx is cancelled, or a local failure makes progress impossible.
// A nil error means the study finished (or this worker cleanly hit its
// MaxChunks budget); the coordinator holds the outcome either way.
func (w *Worker) Run(ctx context.Context) error {
	if w.BuildStudy == nil {
		return fmt.Errorf("coord: worker needs a BuildStudy hook")
	}
	var info StudyInfo
	if _, err := w.doJSON(ctx, http.MethodGet, "/v1/study", nil, &info); err != nil {
		return fmt.Errorf("coord: fetching study: %w", err)
	}
	st, err := w.BuildStudy(info.Recipe)
	if err != nil {
		return fmt.Errorf("coord: building study from recipe: %w", err)
	}
	if w.Workers > 0 {
		st.Workers = w.Workers
	}
	st.OnProgress = nil
	runs, err := study.NewRunStore().Bind(st, "")
	if err != nil {
		return fmt.Errorf("coord: local study invalid: %w", err)
	}
	if !runs.Fingerprint().Equal(info.Fingerprint) {
		return fmt.Errorf("coord: local study fingerprint disagrees with coordinator %s — flag or code skew between machines", w.URL)
	}
	w.logf("worker %s: joined study %s (%d tasks in %d chunks)",
		w.name(), info.Name, info.TotalTasks, info.NumChunks)

	accepted := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease Lease
		if _, err := w.doJSON(ctx, http.MethodPost, "/v1/lease", LeaseRequest{Worker: w.name()}, &lease); err != nil {
			return fmt.Errorf("coord: leasing: %w", err)
		}
		switch {
		case lease.Done && lease.Failed != "":
			return fmt.Errorf("coord: study failed: %s", lease.Failed)
		case lease.Done:
			w.logf("worker %s: study complete", w.name())
			return nil
		case !lease.Granted:
			wait := time.Duration(lease.RetryAfterMS) * time.Millisecond
			if wait <= 0 {
				wait = 500 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			continue
		}

		w.logf("worker %s: running chunk %d %v (attempt %d)", w.name(), lease.Chunk, lease.Range, lease.Attempt)
		cp, err := runs.RunChunk(ctx, lease.Range)
		if err != nil {
			// A failing simulation is not retryable here — drop the lease
			// (it expires server-side) and surface the error locally.
			return fmt.Errorf("coord: chunk %d: %w", lease.Chunk, err)
		}
		ok, err := w.submitChunk(ctx, lease, cp)
		if err != nil {
			return err
		}
		if ok {
			accepted++
			if w.MaxChunks > 0 && accepted >= w.MaxChunks {
				w.logf("worker %s: chunk budget %d reached, exiting", w.name(), w.MaxChunks)
				return nil
			}
		}
	}
}

// submitChunk delivers one checkpoint. Lease races (409) are benign —
// someone else completed the chunk — and return (false, nil); rejected
// checkpoints (422) are a real fault and error out.
func (w *Worker) submitChunk(ctx context.Context, lease Lease, cp *study.Checkpoint) (bool, error) {
	var buf bytes.Buffer
	if err := cp.WriteBinary(&buf); err != nil {
		return false, fmt.Errorf("coord: serialising chunk %d: %w", lease.Chunk, err)
	}
	sub := Submission{
		Worker: w.name(), Chunk: lease.Chunk, LeaseID: lease.LeaseID,
		Checkpoint: buf.Bytes(),
	}
	var res SubmitResult
	code, err := w.doJSON(ctx, http.MethodPost, "/v1/chunks", sub, &res)
	switch {
	case err != nil:
		return false, fmt.Errorf("coord: submitting chunk %d: %w", lease.Chunk, err)
	case code == http.StatusConflict:
		w.logf("worker %s: chunk %d submission superseded (%s) — moving on", w.name(), lease.Chunk, res.Error)
		return false, nil
	case code != http.StatusOK || !res.Accepted:
		return false, fmt.Errorf("coord: chunk %d rejected (HTTP %d): %s", lease.Chunk, code, res.Error)
	}
	if res.Duplicate {
		w.logf("worker %s: chunk %d was already accepted (lost acknowledgement replayed)", w.name(), lease.Chunk)
	} else {
		w.logf("worker %s: chunk %d accepted", w.name(), lease.Chunk)
	}
	return true, nil
}

// retryWait returns the delay before retry n (0-based): capped
// exponential backoff d = min(RetryCap, RetryBase·2ⁿ), jittered
// uniformly over [d/2, d) from the worker's seeded stream.
func (w *Worker) retryWait(n int) time.Duration {
	base, limit := w.RetryBase, w.RetryCap
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	if limit <= 0 {
		limit = 10 * time.Second
	}
	d := limit
	if n < 30 { // beyond 2³⁰·base the shift could overflow; it is past any sane cap anyway
		if scaled := base << n; scaled > 0 && scaled < limit {
			d = scaled
		}
	}
	w.rngOnce.Do(func() {
		seed := w.RetrySeed
		if seed == 0 {
			h := fnv.New64a()
			h.Write([]byte(w.name()))
			seed = int64(h.Sum64())
		}
		w.rng = rand.New(rand.NewSource(seed))
	})
	w.rngMu.Lock()
	defer w.rngMu.Unlock()
	return d/2 + time.Duration(w.rng.Int63n(int64(d/2)))
}

// doJSON performs one JSON request with capped, jittered exponential
// backoff on retryable failures: transient network errors, 5xx
// responses (the coordinator down or restarting behind the same
// address) and garbled 2xx bodies (a truncated response is a transport
// fault, not an answer). Anything else is terminal and returned to the
// caller — the coordinator's answers are deterministic, so a 4xx will
// not improve on retry (409 lease races are benign, 422 means the data
// was refused). Every wait honors ctx cancellation.
func (w *Worker) doJSON(ctx context.Context, method, path string, in, out any) (int, error) {
	attempts := w.RetryAttempts
	if attempts <= 0 {
		attempts = 5
	}
	var reqBody []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		reqBody = b
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(w.retryWait(attempt - 1)):
			}
		}
		var body io.Reader
		if reqBody != nil {
			body = bytes.NewReader(reqBody)
		}
		req, err := http.NewRequestWithContext(ctx, method, w.URL+path, body)
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		if w.Token != "" {
			req.Header.Set("Authorization", "Bearer "+w.Token)
		}
		resp, err := w.client().Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			lastErr = err
			w.logf("worker %s: %s %s failed (attempt %d/%d): %v", w.name(), method, path, attempt+1, attempts, err)
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("reading response: %w", err)
			w.logf("worker %s: %s %s response lost (attempt %d/%d): %v", w.name(), method, path, attempt+1, attempts, err)
			continue
		}
		if resp.StatusCode >= http.StatusInternalServerError {
			lastErr = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
			w.logf("worker %s: %s %s → %v (attempt %d/%d) — retrying", w.name(), method, path, lastErr, attempt+1, attempts)
			continue
		}
		if out != nil && len(data) > 0 {
			if err := json.Unmarshal(data, out); err != nil {
				if resp.StatusCode >= http.StatusBadRequest {
					// Non-JSON 4xx bodies (http.Error) surface as-is — and
					// like every 4xx they are terminal.
					return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
				}
				lastErr = fmt.Errorf("HTTP %d with undecodable body: %w", resp.StatusCode, err)
				w.logf("worker %s: %s %s truncated/garbled response (attempt %d/%d) — retrying", w.name(), method, path, attempt+1, attempts)
				continue
			}
		}
		return resp.StatusCode, nil
	}
	return 0, fmt.Errorf("after %d attempts: %w", attempts, lastErr)
}
