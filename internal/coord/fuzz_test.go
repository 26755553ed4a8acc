package coord

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pnps/internal/study"
)

// chunkRecord runs one chunk of st and returns its binary checkpoint
// record, after applying mutate to the checkpoint (nil keeps it).
func chunkRecord(tb testing.TB, st study.Study, r study.TaskRange, mutate func(cp *study.Checkpoint)) []byte {
	tb.Helper()
	cp, err := st.RunChunk(context.Background(), r)
	if err != nil {
		tb.Fatal(err)
	}
	if mutate != nil {
		mutate(cp)
	}
	var buf bytes.Buffer
	if err := cp.WriteBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzOpenJournal feeds arbitrary bytes to journal replay, which reads
// a file a crashed coordinator left behind. Replay must never panic: it
// either refuses the file with an error, or returns a journal that
// appends again, and whose next replay yields every record it recovered
// plus the new one, with no torn tail left over.
func FuzzOpenJournal(f *testing.F) {
	st, err := testRecipe().Build()
	if err != nil {
		f.Fatal(err)
	}
	fp, err := st.Fingerprint()
	if err != nil {
		f.Fatal(err)
	}
	const total, size, chunks = 8, 2, 4
	path := filepath.Join(f.TempDir(), "study.journal")
	open := func() (*Journal, *JournalReplay, error) {
		return OpenJournal(path, fp, total, size, chunks, SyncOff)
	}

	// Seeds: the vectors of TestJournalTornTail and
	// TestJournalRefusesCorruption over version-2 records carrying real
	// binary checkpoints — a header-only journal, two whole records,
	// every torn cut, a flipped payload bit — plus a version-1 journal
	// and a file that is not a journal at all.
	j, _, err := open()
	if err != nil {
		f.Fatal(err)
	}
	headerEnd, err := j.f.Seek(0, 1)
	if err != nil {
		f.Fatal(err)
	}
	rec0 := chunkRecord(f, st, study.TaskRange{Lo: 0, Hi: 2}, nil)
	if err := j.Append(JournalRecord{Chunk: 0, LeaseID: "lease-1", Worker: "w0", Checkpoint: rec0}); err != nil {
		f.Fatal(err)
	}
	whole, err := j.f.Seek(0, 1)
	if err != nil {
		f.Fatal(err)
	}
	rec1 := chunkRecord(f, st, study.TaskRange{Lo: 2, Hi: 4}, nil)
	if err := j.Append(JournalRecord{Chunk: 1, LeaseID: "lease-2", Worker: "w1", Checkpoint: rec1}); err != nil {
		f.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	n := int64(len(full))
	f.Add(full)
	f.Add(full[:headerEnd])
	for _, cut := range []int64{n - 1, n - 5, whole + 5, whole + 1, headerEnd - 1} {
		f.Add(full[:cut])
	}
	flipped := append([]byte(nil), full...)
	flipped[headerEnd+10] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("not a journal at all"))
	v1 := filepath.Join(f.TempDir(), "v1.journal")
	writeJournalV1(f, v1, fp)
	if raw, err := os.ReadFile(v1); err == nil {
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, replay, err := open()
		if err != nil {
			return
		}
		rec := JournalRecord{Chunk: 3, LeaseID: "lease-fuzz", Checkpoint: rec1}
		if err := j.Append(rec); err != nil {
			j.Close()
			t.Fatalf("replayed journal refuses an append: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, again, err := open()
		if err != nil {
			t.Fatalf("journal refused after a clean append to its replay: %v", err)
		}
		j.Close()
		if again.TornBytes != 0 {
			t.Fatalf("reopened journal reports %d torn bytes after an append", again.TornBytes)
		}
		if got, want := len(again.Records), len(replay.Records)+1; got != want {
			t.Fatalf("reopened journal holds %d records, want %d", got, want)
		}
		last := again.Records[len(again.Records)-1]
		if last.Chunk != rec.Chunk || last.LeaseID != rec.LeaseID || !bytes.Equal(last.Checkpoint, rec.Checkpoint) {
			t.Fatalf("appended record replayed as %+v", last)
		}
	})
}

// FuzzSubmitChunk posts arbitrary bodies to POST /v1/chunks of a live,
// journalling coordinator that has leased chunk 0. Nothing may panic
// and every answer must be one of the protocol's codes. An accepted
// submission must have folded exactly chunk 0 and must replay from the
// journal into a restarted coordinator; a refused one must leave the
// lease and the folder untouched, so the genuine chunk still lands.
func FuzzSubmitChunk(f *testing.F) {
	st, err := testRecipe().Build()
	if err != nil {
		f.Fatal(err)
	}
	chunk0 := study.TaskRange{Lo: 0, Hi: 2}
	const leaseID = "lease-1-chunk-0-attempt-1"
	envelope := func(chunk int, lease string, ckpt []byte) []byte {
		raw, err := json.Marshal(Submission{Worker: "fuzzer", Chunk: chunk, LeaseID: lease, Checkpoint: ckpt})
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	genuineCP, err := st.RunChunk(context.Background(), chunk0)
	if err != nil {
		f.Fatal(err)
	}
	genuine := envelope(0, leaseID, chunkRecord(f, st, chunk0, nil))

	// Seeds: the vectors of TestCoordinatorRejectsHostileSubmissions and
	// the checkpoint corruption tests, re-encoded as binary records.
	f.Add(genuine)
	foreignRecipe := testRecipe()
	foreignRecipe.Seed++
	foreign, err := foreignRecipe.Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(envelope(0, leaseID, chunkRecord(f, foreign, chunk0, nil)))
	for _, mutate := range []func(cp *study.Checkpoint){
		func(cp *study.Checkpoint) { cp.Records[1].Index = cp.Records[0].Index },
		func(cp *study.Checkpoint) { cp.Records[0].Index = -1 },
		func(cp *study.Checkpoint) { cp.Records[1].Index = cp.Total },
		func(cp *study.Checkpoint) { cp.Records[0].HistTotal = cp.Records[0].HistTotal*2 + 1 },
		func(cp *study.Checkpoint) { cp.Records[0].HistBins[0] = -1 },
		func(cp *study.Checkpoint) { cp.Records[0].HistBins = nil },
		func(cp *study.Checkpoint) { cp.Records[1].Metrics.Stability = math.NaN() },
		func(cp *study.Checkpoint) { cp.Records = cp.Records[:1] },
	} {
		f.Add(envelope(0, leaseID, chunkRecord(f, st, chunk0, mutate)))
	}
	rec := chunkRecord(f, st, chunk0, nil)
	f.Add(envelope(0, leaseID, rec[:len(rec)/2]))
	f.Add(envelope(0, leaseID, append(append([]byte(nil), rec...), 0)))
	v1 := append([]byte(nil), rec...)
	binary.LittleEndian.PutUint16(v1[4:], 1)
	f.Add(envelope(0, leaseID, v1))
	var js bytes.Buffer
	if err := genuineCP.WriteJSON(&js); err != nil {
		f.Fatal(err)
	}
	f.Add(envelope(0, leaseID, js.Bytes()))
	// The version-1 wire shape: the checkpoint as an inline JSON object.
	f.Add([]byte(`{"worker":"fuzzer","chunk":0,"lease_id":"` + leaseID + `","checkpoint":` + js.String() + `}`))
	f.Add(envelope(0, "lease-0-stolen", rec))
	f.Add(envelope(99, leaseID, rec))
	f.Add(envelope(0, leaseID, nil))
	f.Add(genuine[:len(genuine)/2])
	f.Add([]byte("not a submission"))

	path := filepath.Join(f.TempDir(), "submit.journal")
	post := func(s *Server, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/chunks", bytes.NewReader(body)))
		return w
	}
	leased := func(t *testing.T, cfg Config) *Server {
		cfg.Study, cfg.ChunkSize = st, 2
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if l := s.lease("fuzzer"); !l.Granted || l.Chunk != 0 || l.LeaseID != leaseID {
			t.Fatalf("first lease %+v, want chunk 0 as %s", l, leaseID)
		}
		return s
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := leased(t, Config{})
		switch w := post(s, body); w.Code {
		case http.StatusOK:
			if st := s.Status(); st.DoneChunks != 1 || st.FoldedTasks != 2 {
				t.Fatalf("accepted submission left status %+v, want chunk 0 folded", st)
			}
			// What a journalling coordinator accepts must replay into
			// its restarted successor.
			os.Remove(path)
			cfg := Config{JournalPath: path, JournalSync: SyncOff}
			js := leased(t, cfg)
			if w := post(js, body); w.Code != http.StatusOK {
				t.Fatalf("journalling coordinator answered HTTP %d to a submission accepted without a journal: %s", w.Code, w.Body)
			}
			js.Close()
			cfg.Study, cfg.ChunkSize = st, 2
			again, err := NewServer(cfg)
			if err != nil {
				t.Fatalf("journal of an accepted submission does not replay: %v", err)
			}
			defer again.Close()
			if st := again.Status(); st.DoneChunks != 1 || st.FoldedTasks != 2 {
				t.Fatalf("journal replay of an accepted submission left status %+v", st)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			if st := s.Status(); st.DoneChunks != 0 || st.FoldedTasks != 0 {
				t.Fatalf("refused submission (HTTP %d) changed status %+v", w.Code, st)
			}
			if w := post(s, genuine); w.Code != http.StatusOK {
				t.Fatalf("genuine submission after a refusal: HTTP %d %s", w.Code, w.Body)
			}
		default:
			t.Fatalf("POST /v1/chunks answered HTTP %d: %s", w.Code, w.Body)
		}
	})
}
