package coord

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

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
	// TestJournalRefusesCorruption — a header-only journal, two whole
	// records, every torn cut, a flipped payload bit — plus a file that
	// is not a journal at all.
	j, _, err := open()
	if err != nil {
		f.Fatal(err)
	}
	headerEnd, err := j.f.Seek(0, 1)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Append(JournalRecord{Chunk: 0, Checkpoint: json.RawMessage(`{"keep":"me"}`)}); err != nil {
		f.Fatal(err)
	}
	whole, err := j.f.Seek(0, 1)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Append(JournalRecord{Chunk: 1, Checkpoint: json.RawMessage(`{"torn":"away"}`)}); err != nil {
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

	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, replay, err := open()
		if err != nil {
			return
		}
		rec := JournalRecord{Chunk: 3, LeaseID: "lease-fuzz", Checkpoint: json.RawMessage(`{}`)}
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
		if last := again.Records[len(again.Records)-1]; last.Chunk != rec.Chunk || last.LeaseID != rec.LeaseID {
			t.Fatalf("appended record replayed as %+v", last)
		}
	})
}
