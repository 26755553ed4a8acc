// Package coord is the distributed study coordinator: the orchestration
// layer that turns `pnstudy -shard` per machine plus hand-merged
// checkpoint files into a push-button million-run study.
//
// The Server expands a study into fixed-size ledger chunks, leases
// chunk ranges to workers over a small HTTP/JSON protocol, collects
// per-chunk study.Checkpoint submissions, re-leases chunks whose lease
// expired (a straggling or dead worker) with per-chunk retry counting
// and backoff, and refuses submissions that fail checkpoint validation
// or carry the wrong study fingerprint. Accepted chunks stream through
// a study.Folder — the canonical-ledger-order pre-merge — so the
// coordinator's histogram state stays O(outstanding chunks) however
// large the study, live per-axis marginals are available while chunks
// land, and the final outcome is bit-identical to a single-process
// Study.Run.
//
// The Worker (client.go) is the matching execution loop behind
// `pnstudy -worker <url>`: fetch the coordinator's study recipe, verify
// fingerprints agree, then lease → RunChunk → submit until the study is
// done.
//
// Failure semantics: a worker that dies mid-lease simply lets the lease
// expire — its chunk returns to the queue and another worker re-runs
// it (re-execution is safe: chunks are deterministic and the folder
// accepts exactly one submission per chunk). A chunk that fails
// MaxAttempts leases marks the whole study failed — by then the chunk
// is evidently poisoned, and silently dropping it would break the
// complete-ledger contract.
package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pnps/internal/study"
)

// Protocol types. All endpoints speak JSON.
//
//	GET  /v1/study   → StudyInfo
//	POST /v1/lease   LeaseRequest → Lease
//	POST /v1/chunks  Submission   → SubmitResult
//	GET  /v1/status  → Status
//	GET  /v1/outcome → study JSON aggregate (404 until done)

// StudyInfo is the coordinator's published study identity: the
// fingerprint workers must reproduce locally before touching the
// ledger, the chunk geometry, and the serialisable recipe (opaque to
// the coordinator) workers build their study from.
type StudyInfo struct {
	Name        string            `json:"name"`
	Fingerprint study.Fingerprint `json:"fingerprint"`
	TotalTasks  int               `json:"total_tasks"`
	ChunkSize   int               `json:"chunk_size"`
	NumChunks   int               `json:"num_chunks"`
	Recipe      json.RawMessage   `json:"recipe,omitempty"`
}

// LeaseRequest asks for the next chunk to execute.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease is the coordinator's answer: a granted chunk, "come back in
// RetryAfterMS" (everything is leased or backing off), or "the study is
// over" (Done, with Failed set when it ended in error).
type Lease struct {
	Granted      bool            `json:"granted"`
	Done         bool            `json:"done,omitempty"`
	Failed       string          `json:"failed,omitempty"`
	RetryAfterMS int64           `json:"retry_after_ms,omitempty"`
	Chunk        int             `json:"chunk,omitempty"`
	Range        study.TaskRange `json:"range,omitempty"`
	Attempt      int             `json:"attempt,omitempty"`
	LeaseID      string          `json:"lease_id,omitempty"`
	TTLMS        int64           `json:"ttl_ms,omitempty"`
}

// Submission delivers one executed chunk. The checkpoint is the binary
// record Checkpoint.WriteBinary writes (base64 inside the JSON
// envelope), so the server pushes it through study.ReadCheckpoint — the
// same validating decoder checkpoint files go through — and journals
// the accepted bytes unchanged.
type Submission struct {
	Worker     string `json:"worker"`
	Chunk      int    `json:"chunk"`
	LeaseID    string `json:"lease_id"`
	Checkpoint []byte `json:"checkpoint"`
}

// SubmitResult acknowledges a submission. Duplicate marks a replayed
// submission of an already-folded chunk by the lease that completed it:
// accepted idempotently (the first copy did the folding), so a worker
// whose 200 was lost in transit can safely retry.
type SubmitResult struct {
	Accepted  bool   `json:"accepted"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Status is the live view of a coordinated study.
type Status struct {
	TotalTasks   int              `json:"total_tasks"`
	FoldedTasks  int              `json:"folded_tasks"`
	TotalChunks  int              `json:"total_chunks"`
	DoneChunks   int              `json:"done_chunks"`
	LeasedChunks int              `json:"leased_chunks"`
	Done         bool             `json:"done"`
	Failed       string           `json:"failed,omitempty"`
	Marginals    []study.Marginal `json:"marginals,omitempty"`
}

// Config parameterises a coordinator.
type Config struct {
	// Study is the matrix to execute (the study definition is code; the
	// serialisable Recipe below is what workers rebuild it from).
	Study study.Study
	// ChunkSize is the lease granularity in ledger tasks (default 64).
	ChunkSize int
	// LeaseTTL is how long a worker may sit on a chunk before it is
	// re-leased to someone else (default 2m). It bounds the damage of a
	// dead or straggling worker: one TTL of wasted wall clock per loss.
	LeaseTTL time.Duration
	// MaxAttempts bounds leases per chunk (default 5); exhausting it
	// fails the study rather than spinning on a poisoned chunk.
	MaxAttempts int
	// Backoff delays the re-lease of an expired chunk, scaled linearly
	// by its attempt count (default 1s). It keeps a chunk that kills
	// workers from hot-looping through its attempt budget.
	Backoff time.Duration
	// Recipe is the serialisable study recipe served to workers
	// (typically a studycli.Config); the coordinator never parses it.
	Recipe json.RawMessage
	// JournalPath, when non-empty, makes accepted chunks durable: every
	// accepted submission is appended to a write-ahead journal at this
	// path before the worker is acknowledged, and an existing journal is
	// replayed on startup (through the same validating Folder path live
	// submissions take) so a restarted coordinator resumes leasing only
	// the still-missing chunks. See journal.go for the format and the
	// torn-tail/corruption taxonomy.
	JournalPath string
	// JournalSync selects the journal fsync policy (default SyncAlways).
	JournalSync SyncPolicy
	// MaxBodyBytes caps POST /v1/chunks request bodies (default 64 MiB);
	// oversized submissions are refused before they buffer in memory.
	MaxBodyBytes int64
	// Logf, when non-nil, receives lease-lifecycle diagnostics.
	Logf func(format string, args ...any)
	// OnChunk, when non-nil, is called after every accepted chunk with
	// a status snapshot including live marginals — the streaming hook
	// pncoord prints from. Called without the server lock held.
	OnChunk func(s Status)

	// now overrides the clock in tests.
	now func() time.Time
}

type chunkPhase uint8

const (
	chunkPending chunkPhase = iota
	chunkLeased
	chunkDone
)

// chunkState is one chunk's position in the lease state machine:
// pending → leased → done, with expiry kicking leased back to pending
// (attempt count retained, re-lease gated by notBefore backoff).
// doneLease remembers which lease completed the chunk, so a worker
// replaying a submission whose acknowledgement was lost is answered
// idempotently instead of conflicting with itself.
type chunkState struct {
	phase     chunkPhase
	attempts  int
	leaseID   string
	worker    string
	expires   time.Time
	notBefore time.Time
	doneLease string
}

// Server coordinates one study across any number of workers. Create
// with NewServer, expose Handler over HTTP, wait on Done.
type Server struct {
	cfg  Config
	info StudyInfo

	mu         sync.Mutex
	folder     *study.Folder
	chunks     []chunkState
	doneChunks int
	leaseSeq   int
	failed     error
	outcome    *study.StudyOutcome
	done       chan struct{}
	journal    *Journal
	draining   bool
}

// NewServer validates the study, prepares the chunk ledger and — when
// Config.JournalPath is set — opens the write-ahead journal, replaying
// any chunks a previous incarnation already made durable.
func NewServer(cfg Config) (*Server, error) {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 64
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	folder, err := cfg.Study.NewFolder(cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		folder: folder,
		chunks: make([]chunkState, folder.NumChunks()),
		done:   make(chan struct{}),
		info: StudyInfo{
			Name:        cfg.Study.Name,
			Fingerprint: folder.Fingerprint(),
			TotalTasks:  folder.TotalTasks(),
			ChunkSize:   cfg.ChunkSize,
			NumChunks:   folder.NumChunks(),
			Recipe:      cfg.Recipe,
		},
	}
	if cfg.JournalPath != "" {
		if err := s.openJournal(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openJournal opens (or creates) the configured journal and replays an
// existing file's records through the validating fold path, leaving the
// server resumed at exactly the durable frontier.
func (s *Server) openJournal() error {
	j, replay, err := OpenJournal(s.cfg.JournalPath, s.info.Fingerprint,
		s.info.TotalTasks, s.info.ChunkSize, s.info.NumChunks, s.cfg.JournalSync)
	if err != nil {
		return err
	}
	if replay.TornBytes > 0 {
		s.logf("coord: journal %s: truncated %d-byte torn tail (a crash interrupted the last append; its chunk will re-lease)",
			s.cfg.JournalPath, replay.TornBytes)
	}
	for i, rec := range replay.Records {
		if rec.Chunk < 0 || rec.Chunk >= len(s.chunks) {
			j.Close()
			return fmt.Errorf("coord: journal record %d: chunk %d outside [0,%d)", i, rec.Chunk, len(s.chunks))
		}
		if s.chunks[rec.Chunk].phase == chunkDone {
			j.Close()
			return fmt.Errorf("coord: journal record %d: chunk %d journalled twice", i, rec.Chunk)
		}
		cp, err := study.ReadCheckpoint(bytes.NewReader(rec.Checkpoint))
		if err != nil {
			j.Close()
			return fmt.Errorf("coord: journal record %d (chunk %d): %w", i, rec.Chunk, err)
		}
		if err := s.folder.Fold(rec.Chunk, cp); err != nil {
			j.Close()
			return fmt.Errorf("coord: journal record %d (chunk %d): %w", i, rec.Chunk, err)
		}
		s.chunks[rec.Chunk].phase = chunkDone
		s.chunks[rec.Chunk].doneLease = rec.LeaseID
		s.doneChunks++
	}
	s.journal = j
	if len(replay.Records) > 0 {
		s.logf("coord: journal %s: replayed %d durable chunks (%d tasks), %d chunks still missing",
			s.cfg.JournalPath, s.doneChunks, s.folder.FoldedTasks(), len(s.chunks)-s.doneChunks)
	}
	if s.doneChunks == len(s.chunks) {
		out, err := s.folder.Outcome()
		if err != nil {
			return fmt.Errorf("coord: outcome from fully-journalled study: %w", err)
		}
		s.outcome = out
		close(s.done)
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Done is closed when every chunk has folded or the study failed.
func (s *Server) Done() <-chan struct{} { return s.done }

// Drain puts the server into graceful-shutdown mode: no new leases are
// granted (workers are told to retry, and will find the restarted
// coordinator there when they do), while in-flight submissions are
// still accepted and journalled — work already paid for is not thrown
// away on the way down.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.logf("coord: draining — leases suspended, in-flight submissions still accepted")
}

// Close flushes and closes the journal (if any). Call after the HTTP
// server has shut down, so no submission can race the close.
func (s *Server) Close() error {
	s.mu.Lock()
	j := s.journal
	s.journal = nil
	s.mu.Unlock()
	return j.Close()
}

// Outcome returns the completed study aggregate. It errors until Done
// is closed, and reports the failure if the study failed.
func (s *Server) Outcome() (*study.StudyOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return nil, s.failed
	}
	if s.outcome == nil {
		return nil, errors.New("coord: study not complete")
	}
	return s.outcome, nil
}

// Info returns the published study identity.
func (s *Server) Info() StudyInfo { return s.info }

// Status snapshots the live study state.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *Server) statusLocked() Status {
	st := Status{
		TotalTasks:  s.folder.TotalTasks(),
		FoldedTasks: s.folder.FoldedTasks(),
		TotalChunks: len(s.chunks),
		DoneChunks:  s.doneChunks,
		Done:        s.outcome != nil || s.failed != nil,
		Marginals:   s.folder.Marginals(),
	}
	for i := range s.chunks {
		if s.chunks[i].phase == chunkLeased {
			st.LeasedChunks++
		}
	}
	if s.failed != nil {
		st.Failed = s.failed.Error()
	}
	return st
}

// failLocked marks the study failed and releases waiters.
func (s *Server) failLocked(err error) {
	if s.failed != nil {
		return
	}
	s.failed = err
	s.logf("coord: study failed: %v", err)
	close(s.done)
}

// lease grants the next available chunk, reclaiming expired leases
// first. See Lease for the three possible answers.
func (s *Server) lease(worker string) Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.now()

	if s.failed != nil {
		return Lease{Done: true, Failed: s.failed.Error()}
	}
	if s.outcome != nil {
		return Lease{Done: true}
	}
	if s.draining {
		// Shutting down: park the workers. They retry with backoff and
		// find the restarted coordinator (same journal) when it returns.
		return Lease{RetryAfterMS: time.Second.Milliseconds()}
	}

	// Reclaim expired leases: the holder is presumed dead or straggling;
	// the chunk re-queues behind an attempt-scaled backoff.
	for i := range s.chunks {
		c := &s.chunks[i]
		if c.phase == chunkLeased && now.After(c.expires) {
			s.logf("coord: lease %s (chunk %d, worker %s) expired after attempt %d — re-queueing",
				c.leaseID, i, c.worker, c.attempts)
			c.phase = chunkPending
			c.leaseID = ""
			c.worker = ""
			c.notBefore = now.Add(time.Duration(c.attempts) * s.cfg.Backoff)
		}
	}

	// Grant the lowest eligible pending chunk; track when the next
	// ineligible one frees up so idle workers poll sensibly.
	retry := s.cfg.LeaseTTL
	for i := range s.chunks {
		c := &s.chunks[i]
		switch c.phase {
		case chunkDone:
			continue
		case chunkLeased:
			if d := c.expires.Sub(now); d < retry {
				retry = d
			}
			continue
		}
		if now.Before(c.notBefore) {
			if d := c.notBefore.Sub(now); d < retry {
				retry = d
			}
			continue
		}
		if c.attempts >= s.cfg.MaxAttempts {
			err := fmt.Errorf("coord: chunk %d exhausted %d lease attempts", i, c.attempts)
			s.failLocked(err)
			return Lease{Done: true, Failed: err.Error()}
		}
		c.phase = chunkLeased
		c.attempts++
		s.leaseSeq++
		c.leaseID = fmt.Sprintf("lease-%d-chunk-%d-attempt-%d", s.leaseSeq, i, c.attempts)
		c.worker = worker
		c.expires = now.Add(s.cfg.LeaseTTL)
		s.logf("coord: leased chunk %d %v to %s (attempt %d, lease %s)",
			i, s.folder.Range(i), worker, c.attempts, c.leaseID)
		return Lease{
			Granted: true, Chunk: i, Range: s.folder.Range(i),
			Attempt: c.attempts, LeaseID: c.leaseID,
			TTLMS: s.cfg.LeaseTTL.Milliseconds(),
		}
	}

	// Cap the idle hint: the earliest a chunk can free up is a lease
	// expiry, but the study usually *finishes* long before that — a
	// worker parked for the full residual TTL would sleep out the
	// completion (with the 2 m default, minutes past the last fold).
	// One poll per second per idle worker is negligible load.
	if retry > time.Second {
		retry = time.Second
	}
	if retry < 50*time.Millisecond {
		retry = 50 * time.Millisecond
	}
	return Lease{RetryAfterMS: retry.Milliseconds()}
}

// submit validates and folds one chunk submission. The HTTP status
// distinguishes client mistakes (400), submissions that lost their
// lease race (409 — benign, the worker moves on) and checkpoints that
// failed validation (422 — the data is wrong and was refused).
func (s *Server) submit(sub Submission) (int, SubmitResult) {
	reject := func(code int, err error) (int, SubmitResult) {
		return code, SubmitResult{Error: err.Error()}
	}
	if sub.Chunk < 0 || sub.Chunk >= len(s.chunks) {
		return reject(http.StatusBadRequest, fmt.Errorf("chunk %d outside [0,%d)", sub.Chunk, len(s.chunks)))
	}
	if len(sub.Checkpoint) == 0 {
		return reject(http.StatusBadRequest, errors.New("submission carries no checkpoint"))
	}
	// Decode through the validating checkpoint reader before taking
	// the lock: hostile payloads never reach the fold, and the server
	// never decodes a record while holding its state mutex.
	cp, err := study.ReadCheckpoint(bytes.NewReader(sub.Checkpoint))
	if err != nil {
		return reject(http.StatusUnprocessableEntity, err)
	}

	s.mu.Lock()
	c := &s.chunks[sub.Chunk]
	if c.phase == chunkDone && sub.LeaseID != "" && sub.LeaseID == c.doneLease {
		// The lease that completed this chunk is submitting again: its
		// 200 was lost in transit and the worker retried. The first copy
		// already folded and journalled; acknowledge idempotently.
		s.mu.Unlock()
		s.logf("coord: chunk %d duplicate submission from %s (lease %s) — acknowledged idempotently", sub.Chunk, sub.Worker, sub.LeaseID)
		return http.StatusOK, SubmitResult{Accepted: true, Duplicate: true}
	}
	switch {
	case s.failed != nil:
		err = fmt.Errorf("study failed: %v", s.failed)
	case c.phase == chunkDone:
		err = fmt.Errorf("chunk %d already folded", sub.Chunk)
	case c.phase != chunkLeased || c.leaseID != sub.LeaseID:
		// The lease expired and someone else holds the chunk now, or the
		// lease id is plain wrong. (An expired lease that nobody has
		// re-claimed still matches leaseID and is accepted: the work is
		// done and the result is valid — re-leasing it would only waste
		// another worker's time.)
		err = fmt.Errorf("lease %q for chunk %d superseded", sub.LeaseID, sub.Chunk)
	}
	if err != nil {
		s.mu.Unlock()
		return reject(http.StatusConflict, err)
	}

	if err := s.folder.Fold(sub.Chunk, cp); err != nil {
		// Validation failures leave the folder untouched; the lease
		// stands, so the worker (or the next lease after expiry) can
		// still complete the chunk correctly.
		s.mu.Unlock()
		return reject(http.StatusUnprocessableEntity, err)
	}
	// Journal before acknowledging: once the worker sees 200 the chunk
	// must survive a coordinator crash. An append failure (disk gone)
	// fails the study — continuing would silently forfeit durability.
	if err := s.journal.Append(JournalRecord{
		Chunk: sub.Chunk, LeaseID: sub.LeaseID, Worker: sub.Worker, Checkpoint: sub.Checkpoint,
	}); err != nil {
		s.failLocked(err)
		s.mu.Unlock()
		return reject(http.StatusInternalServerError, err)
	}
	c.phase = chunkDone
	c.leaseID = ""
	c.doneLease = sub.LeaseID
	s.doneChunks++
	s.logf("coord: chunk %d folded (%d/%d) from %s", sub.Chunk, s.doneChunks, len(s.chunks), sub.Worker)

	var snapshot Status
	notify := s.cfg.OnChunk != nil
	if s.doneChunks == len(s.chunks) {
		out, err := s.folder.Outcome()
		if err != nil {
			s.failLocked(fmt.Errorf("coord: final fold: %w", err))
			s.mu.Unlock()
			return reject(http.StatusInternalServerError, err)
		}
		s.outcome = out
		close(s.done)
	}
	if notify {
		snapshot = s.statusLocked()
	}
	s.mu.Unlock()

	if notify {
		s.cfg.OnChunk(snapshot)
	}
	return http.StatusOK, SubmitResult{Accepted: true}
}

// Handler returns the coordinator's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/study", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.info)
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		// Lease requests are a worker name; anything beyond 1 MiB is abuse.
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, "bad lease request: "+err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, s.lease(req.Worker))
	})
	mux.HandleFunc("POST /v1/chunks", func(w http.ResponseWriter, r *http.Request) {
		var sub Submission
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&sub); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad submission: "+err.Error(), code)
			return
		}
		code, res := s.submit(sub)
		writeJSON(w, code, res)
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("GET /v1/outcome", func(w http.ResponseWriter, r *http.Request) {
		out, err := s.Outcome()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := out.WriteJSON(w); err != nil {
			s.logf("coord: writing outcome: %v", err)
		}
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
