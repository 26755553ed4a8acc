package coord

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pnps/internal/study"
)

// journalPath returns a per-test journal location.
func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "study.journal")
}

// TestJournalRoundTrip: records appended to a journal come back intact
// from a reopen, in order, and the reopened journal keeps appending.
func TestJournalRoundTrip(t *testing.T) {
	st, err := testRecipe().Build()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := st.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	path := journalPath(t)
	j, replay, err := OpenJournal(path, fp, 8, 2, 4, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Records) != 0 || replay.TornBytes != 0 {
		t.Fatalf("fresh journal replayed %+v", replay)
	}
	recs := []JournalRecord{
		{Chunk: 2, LeaseID: "lease-1", Worker: "w0", Checkpoint: []byte(`{"a":1}`)},
		{Chunk: 0, LeaseID: "lease-2", Worker: "w1", Checkpoint: []byte(`{"b":[2,3]}`)},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replay, err := OpenJournal(path, fp, 8, 2, 4, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if replay.TornBytes != 0 {
		t.Fatalf("clean journal reported %d torn bytes", replay.TornBytes)
	}
	if len(replay.Records) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(replay.Records), len(recs))
	}
	for i, got := range replay.Records {
		want := recs[i]
		if got.Chunk != want.Chunk || got.LeaseID != want.LeaseID || got.Worker != want.Worker ||
			!bytes.Equal(got.Checkpoint, want.Checkpoint) {
			t.Fatalf("record %d round-tripped as %+v, want %+v", i, got, want)
		}
	}
	// The reopened journal appends past the replayed tail.
	if err := j2.Append(JournalRecord{Chunk: 1, Checkpoint: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, replay, err = func() (*Journal, *JournalReplay, error) {
		j, r, err := OpenJournal(path, fp, 8, 2, 4, SyncAlways)
		if err == nil {
			j.Close()
		}
		return j, r, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Records) != 3 || replay.Records[2].Chunk != 1 {
		t.Fatalf("append-after-reopen lost: %+v", replay.Records)
	}
}

// TestJournalTornTail: a file truncated mid-record (the kill -9 case)
// replays every whole record, reports and truncates the torn bytes, and
// the journal keeps working.
func TestJournalTornTail(t *testing.T) {
	st, _ := testRecipe().Build()
	fp, _ := st.Fingerprint()
	path := journalPath(t)
	j, _, err := OpenJournal(path, fp, 8, 2, 4, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Chunk: 0, Checkpoint: []byte(`{"keep":"me"}`)}); err != nil {
		t.Fatal(err)
	}
	whole, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Chunk: 1, Checkpoint: []byte(`{"torn":"away"}`)}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	full, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point inside the second record — from losing its
	// trailing CRC byte to keeping only one byte of its length prefix —
	// must recover the first record and drop the torn one.
	for _, cut := range []int64{full.Size() - 1, full.Size() - 5, whole.Size() + 5, whole.Size() + 1} {
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		j, replay, err := OpenJournal(path, fp, 8, 2, 4, SyncAlways)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(replay.Records) != 1 || replay.Records[0].Chunk != 0 {
			t.Fatalf("cut at %d: replayed %+v, want just chunk 0", cut, replay.Records)
		}
		if want := cut - whole.Size(); replay.TornBytes != want {
			t.Fatalf("cut at %d: reported %d torn bytes, want %d", cut, replay.TornBytes, want)
		}
		// The torn tail was truncated in place: an append then a replay
		// yields exactly the surviving record plus the new one.
		if err := j.Append(JournalRecord{Chunk: 3, Checkpoint: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, replay, err = OpenJournal(path, fp, 8, 2, 4, SyncAlways)
		if err != nil {
			t.Fatalf("reopen after healed cut at %d: %v", cut, err)
		}
		if len(replay.Records) != 2 || replay.Records[1].Chunk != 3 || replay.TornBytes != 0 {
			t.Fatalf("healed journal at cut %d replayed %+v (torn %d)", cut, replay.Records, replay.TornBytes)
		}
		j.Close()
		// Restore the full two-record file for the next truncation point.
		rebuild, _, err := OpenJournal(path, fp, 8, 2, 4, SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, whole.Size()); err != nil {
			t.Fatal(err)
		}
		if _, err := rebuild.f.Seek(whole.Size(), 0); err != nil {
			t.Fatal(err)
		}
		if err := rebuild.Append(JournalRecord{Chunk: 1, Checkpoint: []byte(`{"torn":"away"}`)}); err != nil {
			t.Fatal(err)
		}
		rebuild.Close()
	}
}

// TestJournalRefusesCorruption: a bit flipped inside a durable record is
// not a torn tail — replay must refuse with a CRC diagnostic rather
// than silently dropping once-durable data.
func TestJournalRefusesCorruption(t *testing.T) {
	st, _ := testRecipe().Build()
	fp, _ := st.Fingerprint()
	path := journalPath(t)
	j, _, err := OpenJournal(path, fp, 8, 2, 4, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd, _ := j.f.Seek(0, 1)
	for c := 0; c < 2; c++ {
		if err := j.Append(JournalRecord{Chunk: c, Checkpoint: []byte(`{"payload":"0123456789"}`)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerEnd+10] ^= 0x40 // flip a bit inside record 0's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenJournal(path, fp, 8, 2, 4, SyncAlways)
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("corrupt record opened: %v", err)
	}
}

// TestJournalRefusesWrongStudy: fingerprint and geometry mismatches are
// refused with diagnostics — a journal never folds into a study it was
// not cut from.
func TestJournalRefusesWrongStudy(t *testing.T) {
	st, _ := testRecipe().Build()
	fp, _ := st.Fingerprint()
	path := journalPath(t)
	j, _, err := OpenJournal(path, fp, 8, 2, 4, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	skewed := testRecipe()
	skewed.Seed++
	stSkew, _ := skewed.Build()
	fpSkew, _ := stSkew.Fingerprint()
	if _, _, err := OpenJournal(path, fpSkew, 8, 2, 4, SyncAlways); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint-skewed journal opened: %v", err)
	}
	if _, _, err := OpenJournal(path, fp, 8, 4, 2, SyncAlways); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("geometry-skewed journal opened: %v", err)
	}
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, fp, 8, 2, 4, SyncAlways); err == nil {
		t.Fatal("garbage file opened as journal")
	}
}

// writeJournalV1 writes a journal in format version 1 — a header frame
// with version 1 and one record whose checkpoint is inline JSON — as a
// build before binary checkpoint records left it.
func writeJournalV1(t testing.TB, path string, fp study.Fingerprint) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j := &Journal{f: f, path: path, policy: SyncOff}
	defer j.Close()
	header := journalHeader{
		Magic: journalMagic, Version: 1, Fingerprint: fp,
		TotalTasks: 8, ChunkSize: 2, NumChunks: 4,
	}
	if err := j.appendFrame(header); err != nil {
		t.Fatal(err)
	}
	rec := map[string]any{"chunk": 0, "lease_id": "lease-1", "checkpoint": map[string]any{"total_tasks": 8}}
	if err := j.appendFrame(rec); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRefusesVersion1: a journal written before checkpoints
// became binary records is refused, naming both format versions, by
// OpenJournal and by a coordinator restarted over it — never replayed
// through a decoder that would misread its records.
func TestJournalRefusesVersion1(t *testing.T) {
	st, _ := testRecipe().Build()
	fp, _ := st.Fingerprint()
	path := journalPath(t)
	writeJournalV1(t, path, fp)
	want := fmt.Sprintf("format version 1, this build reads %d", journalVersion)
	if _, _, err := OpenJournal(path, fp, 8, 2, 4, SyncAlways); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("version-1 journal: OpenJournal error %v, want %q", err, want)
	}
	if _, err := NewServer(Config{Study: st, ChunkSize: 2, JournalPath: path}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("version-1 journal: NewServer error %v, want %q", err, want)
	}
}

// TestParseSyncPolicy pins the -fsync flag grammar.
func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{
		"": SyncAlways, "always": SyncAlways, "Always": SyncAlways,
		"off": SyncOff, "none": SyncOff,
	} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("fsyncgate"); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestServerJournalRecovery is the restart contract at the Server level:
// run part of a study against a journalling coordinator, abandon it
// (kill -9 — no drain, no close), build a fresh Server on the same
// journal, and the recovered server must resume at the durable frontier
// and finish with an outcome bit-identical to a single-process Run.
func TestServerJournalRecovery(t *testing.T) {
	refStudy, err := testRecipe().Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refStudy.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	path := journalPath(t)
	cfg := Config{ChunkSize: 2, Logf: t.Logf, JournalPath: path}
	s1 := testServer(t, cfg)

	// Fold 2 of the 4 chunks, then "crash": s1 is simply abandoned with
	// its journal file open, exactly like a SIGKILL.
	for i := 0; i < 2; i++ {
		lease, cp := leaseAndRun(t, s1, "pre-crash")
		if code, res := s1.submit(submission(t, "pre-crash", lease.Chunk, lease.LeaseID, cp)); code != http.StatusOK {
			t.Fatalf("pre-crash submit: HTTP %d %q", code, res.Error)
		}
	}

	s2 := testServer(t, cfg)
	st := s2.Status()
	if st.DoneChunks != 2 || st.FoldedTasks != 4 {
		t.Fatalf("recovered server at %d chunks / %d tasks, want 2 / 4", st.DoneChunks, st.FoldedTasks)
	}

	// Recovery must lease only the missing chunks — and the pre-crash
	// worker's replayed submission (it never saw its 200) must be
	// idempotent on the recovered server too.
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		lease, cp := leaseAndRun(t, s2, "post-crash")
		if seen[lease.Chunk] {
			t.Fatalf("chunk %d leased twice after recovery", lease.Chunk)
		}
		seen[lease.Chunk] = true
		if code, res := s2.submit(submission(t, "post-crash", lease.Chunk, lease.LeaseID, cp)); code != http.StatusOK {
			t.Fatalf("post-crash submit: HTTP %d %q", code, res.Error)
		}
	}
	if l := s2.lease("post-crash"); !l.Done {
		t.Fatalf("study not done after recovery completed the missing chunks: %+v", l)
	}
	got, err := s2.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "journal-recovered run", ref, got)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third incarnation finds every chunk durable: done before any
	// lease is issued.
	s3 := testServer(t, cfg)
	select {
	case <-s3.Done():
	default:
		t.Fatal("fully-journalled study not done on open")
	}
	got3, err := s3.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "fully-journalled reopen", ref, got3)
	s3.Close()
}

// TestServerDrain: a draining server grants no leases but still accepts
// (and journals) in-flight submissions.
func TestServerDrain(t *testing.T) {
	s := testServer(t, Config{ChunkSize: 2, Logf: t.Logf, JournalPath: journalPath(t)})
	lease, cp := leaseAndRun(t, s, "w")
	s.Drain()
	if l := s.lease("late"); l.Granted || l.Done || l.RetryAfterMS <= 0 {
		t.Fatalf("draining server granted a lease: %+v", l)
	}
	if code, res := s.submit(submission(t, "w", lease.Chunk, lease.LeaseID, cp)); code != http.StatusOK || !res.Accepted {
		t.Fatalf("in-flight submission during drain: HTTP %d %q", code, res.Error)
	}
	if st := s.Status(); st.DoneChunks != 1 {
		t.Fatalf("drained server lost the submission: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmissionBodyCap: an oversized POST /v1/chunks body is refused
// with 413 before it buffers, and leaves the study able to proceed.
func TestSubmissionBodyCap(t *testing.T) {
	s := testServer(t, Config{ChunkSize: 2, MaxBodyBytes: 1024, Logf: t.Logf})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	big := append([]byte(`{"worker":"`), bytes.Repeat([]byte("x"), 4096)...)
	big = append(big, `"}`...)
	resp, err := http.Post(srv.URL+"/v1/chunks", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission: HTTP %d, want 413", resp.StatusCode)
	}
	if st := s.Status(); st.DoneChunks != 0 || st.Failed != "" {
		t.Fatalf("oversized submission disturbed the study: %+v", st)
	}
}

// TestWorkerRetryWait pins the backoff envelope: exponential growth from
// RetryBase, every wait inside [d/2, d), capped at RetryCap, and
// deterministic for a fixed seed.
func TestWorkerRetryWait(t *testing.T) {
	w := &Worker{RetryBase: 100 * time.Millisecond, RetryCap: 2 * time.Second, RetrySeed: 7}
	exp := []time.Duration{100, 200, 400, 800, 1600, 2000, 2000, 2000}
	for n, d := range exp {
		d *= time.Millisecond
		got := w.retryWait(n)
		if got < d/2 || got >= d {
			t.Errorf("retryWait(%d) = %v, want in [%v, %v)", n, got, d/2, d)
		}
	}
	// Determinism: a second worker with the same seed replays the waits.
	a := &Worker{RetrySeed: 7}
	b := &Worker{RetrySeed: 7}
	for n := 0; n < 8; n++ {
		if wa, wb := a.retryWait(n), b.retryWait(n); wa != wb {
			t.Fatalf("retryWait(%d) not deterministic: %v vs %v", n, wa, wb)
		}
	}
}
