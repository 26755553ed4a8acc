package coord

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"pnps/internal/study"
)

// The write-ahead chunk journal: the coordinator's crash persistence.
//
// Every accepted chunk submission is appended to an on-disk journal
// before the coordinator acknowledges it, so a coordinator that dies —
// kill -9, OOM, power loss — loses at most the records that had not
// reached the disk yet (none under SyncAlways, the unflushed page-cache
// tail under SyncOff). On restart, `pncoord -journal <path>` replays the
// journal through the same validating Folder path live submissions take
// and resumes leasing only the still-missing chunks; the recovered
// outcome stays bit-identical to a single-process Study.Run because
// recovery re-folds the exact checkpoint bytes that were accepted live.
//
// File format (all integers big-endian):
//
//	frame  := uint32 length | payload | uint32 CRC-32C(payload)
//	journal := frame(header JSON) frame(record JSON)*
//
// A record frame is a JournalRecord in JSON; its checkpoint is the
// binary study record the worker submitted, base64-encoded. Version 1
// journals carried JSON checkpoints and are refused.
//
// The header frame binds the journal to one study: the fingerprint plus
// the chunk geometry. Opening a journal whose header disagrees with the
// live study is refused — replaying chunks of a different matrix is the
// distributed version of merging mismatched checkpoints.
//
// Failure taxonomy on replay:
//   - incomplete trailing bytes (the file ends inside a frame): a torn
//     tail — the crash interrupted an append. The tail is truncated and
//     its chunk is simply re-leased; this is the "at most the unflushed
//     tail" cost of a crash.
//   - a complete frame whose CRC does not match its payload, or whose
//     payload is not valid JSON: corruption, refused with a diagnostic
//     error. Truncating would silently discard records that were once
//     durable, so the operator must decide.

// SyncPolicy says when the journal reaches the platter.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record (default): an
	// acknowledged chunk survives power loss. Appends pay one fsync.
	SyncAlways SyncPolicy = iota
	// SyncOff leaves flushing to the OS page cache: a machine-level
	// crash may lose recently-acknowledged chunks (they re-lease on
	// restart — correctness holds, wall clock is lost).
	SyncOff
)

// ParseSyncPolicy parses the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "always":
		return SyncAlways, nil
	case "off", "none":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("coord: unknown fsync policy %q (always, off)", s)
}

func (p SyncPolicy) String() string {
	if p == SyncOff {
		return "off"
	}
	return "always"
}

const (
	journalMagic = "pncoord-journal"
	// journalVersion 2 records carry binary checkpoints; version 1
	// carried JSON ones and is refused.
	journalVersion = 2
	// maxFrameBytes bounds a frame's declared length. A length prefix
	// beyond it cannot come from a torn append (truncation shortens,
	// it does not invent bytes), so it is diagnosed as corruption.
	maxFrameBytes = 1 << 30
)

// journalHeader is the first frame: the study identity the journal is
// bound to. Geometry rides along because chunk indices are meaningless
// under a different chunking.
type journalHeader struct {
	Magic       string            `json:"magic"`
	Version     int               `json:"version"`
	Fingerprint study.Fingerprint `json:"fingerprint"`
	TotalTasks  int               `json:"total_tasks"`
	ChunkSize   int               `json:"chunk_size"`
	NumChunks   int               `json:"num_chunks"`
}

// JournalRecord is one accepted chunk: the index, the lease that
// completed it (restored so duplicate submits stay idempotent across a
// coordinator restart), the submitting worker for diagnostics, and the
// checkpoint bytes exactly as accepted — replay pushes them through
// study.ReadCheckpoint and Folder.Fold, the same validation live
// submissions passed.
type JournalRecord struct {
	Chunk   int    `json:"chunk"`
	LeaseID string `json:"lease_id,omitempty"`
	Worker  string `json:"worker,omitempty"`
	// Checkpoint is the submission's binary checkpoint record (base64
	// inside the JSON frame payload).
	Checkpoint []byte `json:"checkpoint"`
}

// JournalReplay is what opening an existing journal recovered.
type JournalReplay struct {
	// Records are the durable chunk records, in append order.
	Records []JournalRecord
	// TornBytes counts trailing bytes discarded as a torn tail (0 when
	// the file ended cleanly on a frame boundary).
	TornBytes int64
}

// Journal is an append-only chunk journal positioned at its tail.
// Appends are not concurrency-safe; the coordinator serialises them
// under its state lock.
type Journal struct {
	f      *os.File
	path   string
	policy SyncPolicy
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// OpenJournal opens (or creates) the chunk journal at path for the
// study identified by fp with the given chunk geometry. A fresh file
// gains a header frame; an existing file must carry a matching header —
// a fingerprint or geometry mismatch is refused, not truncated — and
// its records are replayed into the returned JournalReplay, with any
// torn tail truncated in place so the journal is append-ready.
func OpenJournal(path string, fp study.Fingerprint, totalTasks, chunkSize, numChunks int, policy SyncPolicy) (*Journal, *JournalReplay, error) {
	header := journalHeader{
		Magic: journalMagic, Version: journalVersion,
		Fingerprint: fp, TotalTasks: totalTasks, ChunkSize: chunkSize, NumChunks: numChunks,
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("coord: opening journal: %w", err)
	}
	j := &Journal{f: f, path: path, policy: policy}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("coord: sizing journal: %w", err)
	}
	if size == 0 {
		// Fresh journal: write and sync the header before any record.
		if err := j.appendFrame(header); err != nil {
			f.Close()
			os.Remove(path)
			return nil, nil, err
		}
		return j, &JournalReplay{}, nil
	}
	replay, err := j.replay(header, size)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, replay, nil
}

// replay validates the header frame, collects every durable record,
// truncates a torn tail and leaves the file positioned for append.
func (j *Journal) replay(want journalHeader, size int64) (*JournalReplay, error) {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	r := &frameReader{f: j.f, size: size}

	payload, err := r.next()
	if err != nil {
		return nil, fmt.Errorf("coord: journal %s header: %w", j.path, err)
	}
	if payload == nil {
		return nil, fmt.Errorf("coord: journal %s: torn header — the file never held a durable record; delete it and restart", j.path)
	}
	var header journalHeader
	if err := json.Unmarshal(payload, &header); err != nil {
		return nil, fmt.Errorf("coord: journal %s header: not a journal header: %w", j.path, err)
	}
	switch {
	case header.Magic != journalMagic:
		return nil, fmt.Errorf("coord: %s is not a pncoord journal (magic %q)", j.path, header.Magic)
	case header.Version != journalVersion:
		return nil, fmt.Errorf("coord: journal %s is format version %d, this build reads %d", j.path, header.Version, journalVersion)
	case !header.Fingerprint.Equal(want.Fingerprint):
		return nil, fmt.Errorf("coord: journal %s belongs to a different study (fingerprint mismatch) — flag or code skew since it was written", j.path)
	case header.TotalTasks != want.TotalTasks || header.ChunkSize != want.ChunkSize || header.NumChunks != want.NumChunks:
		return nil, fmt.Errorf("coord: journal %s chunk geometry %d×%d over %d tasks, study wants %d×%d over %d — rerun with the original -chunk",
			j.path, header.NumChunks, header.ChunkSize, header.TotalTasks, want.NumChunks, want.ChunkSize, want.TotalTasks)
	}

	replay := &JournalReplay{}
	for {
		goodEnd := r.off
		payload, err := r.next()
		if err != nil {
			return nil, fmt.Errorf("coord: journal %s record %d: %w", j.path, len(replay.Records), err)
		}
		if payload == nil { // torn tail: truncate back to the last whole frame
			replay.TornBytes = size - goodEnd
			if replay.TornBytes > 0 {
				if err := j.f.Truncate(goodEnd); err != nil {
					return nil, fmt.Errorf("coord: truncating torn journal tail: %w", err)
				}
			}
			if _, err := j.f.Seek(goodEnd, io.SeekStart); err != nil {
				return nil, err
			}
			return replay, nil
		}
		var rec JournalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, fmt.Errorf("coord: journal %s record %d corrupt: CRC passed but payload is not a record: %w", j.path, len(replay.Records), err)
		}
		replay.Records = append(replay.Records, rec)
	}
}

// frameReader walks length|payload|CRC frames. next returns the payload
// of one complete, CRC-valid frame; (nil, nil) when the remaining bytes
// cannot hold a whole frame (clean EOF or torn tail — the caller
// truncates); an error for a complete frame that fails its CRC.
type frameReader struct {
	f    *os.File
	size int64
	off  int64
}

func (r *frameReader) next() ([]byte, error) {
	var prefix [4]byte
	if r.size-r.off < int64(len(prefix)) {
		return nil, nil
	}
	if _, err := io.ReadFull(r.f, prefix[:]); err != nil {
		return nil, fmt.Errorf("reading frame length: %w", err)
	}
	n := int64(binary.BigEndian.Uint32(prefix[:]))
	if n > maxFrameBytes {
		return nil, fmt.Errorf("frame length %d exceeds %d — corrupt length prefix", n, int64(maxFrameBytes))
	}
	if r.size-r.off-int64(len(prefix)) < n+4 { // payload + CRC truncated: torn
		return nil, nil
	}
	buf := make([]byte, n+4)
	if _, err := io.ReadFull(r.f, buf); err != nil {
		return nil, fmt.Errorf("reading frame: %w", err)
	}
	payload, sum := buf[:n], binary.BigEndian.Uint32(buf[n:])
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, fmt.Errorf("CRC mismatch (stored %08x, computed %08x) — the journal is corrupt, not merely torn; refusing to guess which records to keep", sum, got)
	}
	r.off += int64(len(prefix)) + n + 4
	return payload, nil
}

// Append journals one accepted chunk. Under SyncAlways the record is on
// disk when Append returns — the coordinator acknowledges the worker
// only after that, so an acknowledged chunk survives any crash.
func (j *Journal) Append(rec JournalRecord) error {
	if j == nil {
		return nil
	}
	return j.appendFrame(rec)
}

func (j *Journal) appendFrame(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("coord: journal encode: %w", err)
	}
	frame := make([]byte, 4+len(payload)+4)
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	binary.BigEndian.PutUint32(frame[4+len(payload):], crc32.Checksum(payload, crcTable))
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("coord: journal append: %w", err)
	}
	if j.policy == SyncAlways {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("coord: journal fsync: %w", err)
		}
	}
	return nil
}

// Close flushes and closes the journal. Safe on nil.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, os.ErrClosed) {
		return fmt.Errorf("coord: closing journal: %w", err)
	}
	return nil
}
