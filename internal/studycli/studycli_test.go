package studycli

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pnps/internal/study"
)

func TestParseStorageAxis(t *testing.T) {
	ax, err := ParseStorageAxis("ideal:0.047,supercap:0.1,hybrid:0.01:1")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Name != "storage" || len(ax.Levels) != 3 {
		t.Fatalf("axis %q with %d levels", ax.Name, len(ax.Levels))
	}
	if ax.Levels[2].Label != "hybrid:0.01:1" {
		t.Errorf("level label %q", ax.Levels[2].Label)
	}
	for _, bad := range []string{"ideal", "ideal:zero", "ideal:-1", "flywheel:1", "hybrid:0.01",
		"ideal:NaN", "ideal:Inf", "supercap:nan", "hybrid:0.01:NaN"} {
		if _, err := ParseStorageAxis(bad); err == nil {
			t.Errorf("ParseStorageAxis(%q) accepted", bad)
		}
	}
}

func TestParseControlAxis(t *testing.T) {
	ax := ParseControlAxis("pn,static,ondemand")
	if len(ax.Levels) != 3 {
		t.Fatalf("%d levels", len(ax.Levels))
	}
	want := []string{"power-neutral", "static", "ondemand"}
	for i, lv := range ax.Levels {
		if lv.Label != want[i] {
			t.Errorf("level %d label %q, want %q", i, lv.Label, want[i])
		}
	}
}

func TestParseUtilAxis(t *testing.T) {
	ax, err := ParseUtilAxis("1, 0.5")
	if err != nil || len(ax.Levels) != 2 {
		t.Fatalf("ParseUtilAxis = %+v, %v", ax, err)
	}
	for _, bad := range []string{"2", "-0.1", "x", "NaN", "Inf"} {
		if _, err := ParseUtilAxis(bad); err == nil {
			t.Errorf("ParseUtilAxis(%q) accepted", bad)
		}
	}
}

// nonFiniteRecipes decode cleanly but must not build a study.
var nonFiniteRecipes = []string{
	`{"scenario":"stress-clouds","reps":1,"seed":1,"util":"NaN"}`,
	`{"scenario":"stress-clouds","reps":1,"seed":1,"storage":"ideal:NaN"}`,
}

// TestWireRecipeRefusesNonFinite: a recipe arriving over the wire with a
// NaN load or capacitance decodes (the fields are strings) but must not
// build a study.

func TestWireRecipeRefusesNonFinite(t *testing.T) {
	for _, raw := range nonFiniteRecipes {
		c, err := DecodeConfig([]byte(raw))
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if _, err := c.Build(); err == nil {
			t.Errorf("%s: built a study", raw)
		}
	}
}

// TestLightLoadStudyTerminates runs a study at loads 0.1 and 0.2, where
// the supply rests above the monitor's range; such runs used to never
// finish.
func TestLightLoadStudyTerminates(t *testing.T) {
	st, err := Config{Scenario: "stress-clouds", Duration: 2, Util: "0.1,0.2", Reps: 2, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary.Runs != 4 {
		t.Fatalf("%d runs, want 4", out.Summary.Runs)
	}
}

// TestConfigFingerprintStable: the same recipe builds the same study
// twice — the property shard/resume/merge cooperation and the
// coordinator's recipe hand-off rely on — and survives a JSON round
// trip, the wire format pncoord publishes to workers.
func TestConfigFingerprintStable(t *testing.T) {
	c := Config{
		Scenario: "stress-clouds", Duration: 10,
		Storage: "ideal:0.047,hybrid:0.01:1", Control: "pn,ondemand",
		Reps: 2, Seed: 7, Paired: true, Bins: 32, HistLo: 4, HistHi: 6,
	}
	a, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Config
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	b, err := decoded.Build()
	if err != nil {
		t.Fatal(err)
	}
	fpA, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !fpA.Equal(fpB) {
		t.Fatal("JSON round trip changed the study fingerprint")
	}

	cpA, err := a.RunShard(context.Background(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	cpB, err := b.RunShard(context.Background(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := study.MergeCheckpoints(cpA, cpB)
	if err != nil {
		t.Fatalf("checkpoints from identical recipes refused to merge: %v", err)
	}
	if merged.Complete() {
		t.Fatal("two shards of four cannot be complete")
	}

	if _, err := (Config{Scenario: "no-such"}).Build(); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario error = %v", err)
	}
}

// A successful write replaces the file's content; a failing writer
// leaves the previous content in place and no temp file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "study.ckpt")
	writeString := func(content string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}
	}
	requireContent := func(want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("file holds %q (%v), want %q", got, err, want)
		}
	}
	for _, content := range []string{"first", "second"} {
		if err := WriteFileAtomic(path, writeString(content)); err != nil {
			t.Fatal(err)
		}
		requireContent(content)
	}

	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing writer returned %v, want %v", err, boom)
	}
	requireContent("second")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "study.ckpt" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only study.ckpt", names)
	}
}
