package study

import (
	"bytes"
	"testing"
)

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint decoder,
// which reads shard, resume and merge files from disk. Nothing may
// panic, and every checkpoint it accepts must pass Validate.
func FuzzReadCheckpoint(f *testing.F) {
	_, base := completeCheckpoint(f)
	encode := func(cp *Checkpoint) []byte {
		var buf bytes.Buffer
		if err := cp.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	full := encode(base)
	f.Add(full)
	for _, tc := range checkpointCorruptions {
		cp := base.clone()
		tc.mutate(cp)
		f.Add(encode(cp))
	}
	for _, frac := range []int{2, 4} {
		f.Add(full[:len(full)/frac])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("ReadCheckpoint accepted an invalid checkpoint: %v", err)
		}
	})
}
