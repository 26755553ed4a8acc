package study

import (
	"bytes"
	"context"
	"testing"

	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/testutil"
)

// cellCacheStudy is a small two-axis matrix used by the cell-identity
// tests: 2 storage levels × 2 utilisations × reps repetitions.
func cellCacheStudy(t testing.TB, reps int, storages []Level) Study {
	t.Helper()
	base, ok := scenario.Lookup("stress-clouds")
	if !ok {
		t.Fatal("stress-clouds not registered")
	}
	base.Duration = 8
	return Study{
		Name: "cellcache", Base: base, Reps: reps, Seed: 99,
		Axes: []Axis{
			NewAxis("storage", storages...),
			NewAxis("load", Utilisation(1), Utilisation(0.5)),
		},
		VCHistBins: 16, VCHistLo: 3, VCHistHi: 7,
	}
}

func idealLevel() Level  { return Storage("ideal", sim.IdealCap{Farads: 0.047}) }
func ideal2Level() Level { return Storage("ideal-2", sim.IdealCap{Farads: 0.1}) }
func hybridLevel() Level {
	return Storage("hybrid", sim.HybridCap{
		NodeFarads: 0.01, ReservoirFarads: 1, DiodeDropVolts: 0.35,
		DiodeOhms: 0.2, ChargeOhms: 10, LeakOhms: 20000,
	})
}

// cellKeys binds st in tenant's namespace and returns every cell's
// seed-free key and cell-cache key.
func cellKeys(t *testing.T, st Study, tenant string) ([]runKey, []string) {
	t.Helper()
	sr := bindStore(t, NewRunStore(), st, tenant)
	keys := make([]string, sr.Cells())
	for c := range keys {
		var err error
		if keys[c], err = sr.CellKey(c); err != nil {
			t.Fatal(err)
		}
	}
	return sr.keys, keys
}

// TestCellKeys: every cell of a study has its own key, the same study
// built twice keys identically, and a reseeded study or another
// tenant's changes every cell-cache key. A reseeded cell keeps its
// seed-free key, and the key covers every repetition's seed.
func TestCellKeys(t *testing.T) {
	st := cellCacheStudy(t, 3, []Level{idealLevel(), ideal2Level()})
	runKeys, keys := cellKeys(t, st, "")
	if len(keys) != 4 {
		t.Fatalf("%d keys, want 4", len(keys))
	}
	seen := map[string]int{}
	seenRun := map[runKey]int{}
	for i, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("cells %d and %d share key %s", prev, i, k)
		}
		seen[k] = i
		if prev, dup := seenRun[runKeys[i]]; dup {
			t.Fatalf("cells %d and %d share a seed-free key", prev, i)
		}
		seenRun[runKeys[i]] = i
	}
	// The same study built twice keys identically.
	_, again := cellKeys(t, cellCacheStudy(t, 3, []Level{idealLevel(), ideal2Level()}), "")
	for i := range keys {
		if keys[i] != again[i] {
			t.Fatalf("cell %d key unstable across builds", i)
		}
	}
	// A different seed changes every key, but no seed-free key.
	reseeded := cellCacheStudy(t, 3, []Level{idealLevel(), ideal2Level()})
	reseeded.Seed++
	otherRun, other := cellKeys(t, reseeded, "")
	for i := range keys {
		if keys[i] == other[i] {
			t.Fatalf("cell %d key ignores the study seed", i)
		}
		if runKeys[i] != otherRun[i] {
			t.Fatalf("cell %d seed-free key depends on the study seed", i)
		}
	}
	// Another tenant's namespace changes every key.
	tenantRun, tenant := cellKeys(t, st, "other")
	for i := range keys {
		if keys[i] == tenant[i] || runKeys[i] == tenantRun[i] {
			t.Fatalf("cell %d key ignores the tenant", i)
		}
	}
	// At SeedPerRep a 2-repetition cell's seeds are the first two of
	// the 3-repetition cell's: the third seed still changes the key.
	paired := func(reps int) []string {
		st := cellCacheStudy(t, reps, []Level{idealLevel(), ideal2Level()})
		st.SeedMode = SeedPerRep
		_, keys := cellKeys(t, st, "")
		return keys
	}
	two, three := paired(2), paired(3)
	for i := range two {
		if two[i] == three[i] {
			t.Fatalf("cell %d key ignores its third repetition", i)
		}
	}
}

// TestCellKeysSharedAcrossMatrices: two studies whose storage axes
// differ in the second level share cell keys for every cell of the
// first level — the cross-study reuse the serve cache performs.
func TestCellKeysSharedAcrossMatrices(t *testing.T) {
	_, keysA := cellKeys(t, cellCacheStudy(t, 2, []Level{idealLevel(), ideal2Level()}), "")
	_, keysB := cellKeys(t, cellCacheStudy(t, 2, []Level{idealLevel(), hybridLevel()}), "")
	// Cells 0 and 1 (storage=ideal × both loads) occupy the same ledger
	// positions in both studies, so SeedPerTask seeds agree and the
	// keys must match; cells 2 and 3 differ in storage level.
	for c := 0; c < 2; c++ {
		if keysA[c] != keysB[c] {
			t.Fatalf("shared cell %d keys differ across matrices", c)
		}
	}
	for c := 2; c < 4; c++ {
		if keysA[c] == keysB[c] {
			t.Fatalf("cell %d key ignores the storage level", c)
		}
	}
}

// TestRunStoreSharesAcrossHistBounds: histogram bounds shape no run of
// a study without histograms, so two studies that differ only there
// share their cells' keys and the store's kept runs. With histograms,
// the bounds are part of every key.
func TestRunStoreSharesAcrossHistBounds(t *testing.T) {
	ctx := context.Background()
	a := cellCacheStudy(t, 2, []Level{idealLevel(), ideal2Level()})
	a.VCHistBins, a.VCHistLo, a.VCHistHi = 0, 0, 0
	b := a
	b.VCHistLo, b.VCHistHi = 3, 7
	runA, keysA := cellKeys(t, a, "")
	runB, keysB := cellKeys(t, b, "")
	for c := range keysA {
		if runA[c] != runB[c] || keysA[c] != keysB[c] {
			t.Fatalf("cell %d: keys differ by histogram bounds at 0 bins", c)
		}
	}
	store := NewRunStore()
	r := TaskRange{Lo: 0, Hi: 2}
	if _, err := bindStore(t, store, a, "").RunChunk(ctx, r); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	if before.Kept == 0 {
		t.Fatalf("store %+v kept no run of study a", before)
	}
	got, err := bindStore(t, store, b, "").RunChunk(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if s := store.Stats(); s.Hits != before.Hits+1 {
		t.Fatalf("study b's chunk: store %+v, before %+v; want one hit", s, before)
	}
	want, err := b.RunChunk(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBinary(got), encodeBinary(want)) {
		t.Fatal("chunk through the store differs from Study.RunChunk's")
	}

	a.VCHistBins, b.VCHistBins = 16, 16
	a.VCHistLo, a.VCHistHi = 2, 8
	runA, keysA = cellKeys(t, a, "")
	runB, keysB = cellKeys(t, b, "")
	for c := range keysA {
		if runA[c] == runB[c] || keysA[c] == keysB[c] {
			t.Fatalf("cell %d: keys ignore the histogram bounds at 16 bins", c)
		}
	}
}

// cellRecord encodes repetition-relative task records as a cell
// record, the form EncodeCell writes — so a test can build one EncodeCell
// would refuse to.
func cellRecord(recs []TaskRecord) []byte { return encodeRecord(nil, len(recs), recs, 0) }

// cellRecords runs cell c of st as its own chunk and returns its
// checkpoint and its repetition-relative records.
func cellRecords(t testing.TB, st Study, c int) (*Checkpoint, []TaskRecord) {
	t.Helper()
	cp, err := st.RunChunk(context.Background(), TaskRange{Lo: c * st.Reps, Hi: (c + 1) * st.Reps})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bindStore(t, NewRunStore(), st, "").EncodeCell(cp, c)
	if err != nil {
		t.Fatal(err)
	}
	_, _, recs, err := decodeRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	return cp, recs
}

// TestCellRecordsRoundTrip: cell records encoded from one study's cell
// chunks and restored into a second identical study fold into an
// outcome bit-identical to a direct run — the cache-restore contract.
func TestCellRecordsRoundTrip(t *testing.T) {
	st := cellCacheStudy(t, 2, []Level{idealLevel(), ideal2Level()})
	ctx := context.Background()

	direct, err := st.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the outcome purely from encoded-and-restored cells.
	cells := bindStore(t, NewRunStore(), st, "")
	twin := bindStore(t, NewRunStore(), cellCacheStudy(t, 2, []Level{idealLevel(), ideal2Level()}), "")
	folder, err := twin.NewFolder(2) // chunk = one cell (reps = 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		chunk, err := st.RunChunk(ctx, folder.Range(c))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := cells.EncodeCell(chunk, c)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := twin.RestoreCell(c, raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := folder.Fold(c, cp); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := folder.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Results) != len(direct.Results) {
		t.Fatalf("%d restored results, want %d", len(restored.Results), len(direct.Results))
	}
	for i := range restored.Results {
		testutil.RequireEqual(t, "metrics", restored.Results[i].Metrics, direct.Results[i].Metrics)
	}
	testutil.RequireEqual(t, "summary", restored.Summary, direct.Summary)
	testutil.RequireEqual(t, "marginal count", len(restored.Marginals), len(direct.Marginals))
	for i := range restored.Marginals {
		testutil.RequireEqual(t, "marginal", restored.Marginals[i], direct.Marginals[i])
	}
	testutil.RequireEqual(t, "dwell band", *restored.DwellVC, *direct.DwellVC)
}

func TestCellCheckpointRefusals(t *testing.T) {
	st := cellCacheStudy(t, 2, []Level{idealLevel(), ideal2Level()})
	_, recs := cellRecords(t, st, 1)
	good := cellRecord(recs)
	cells := bindStore(t, NewRunStore(), st, "")

	// Restoring into the wrong cell trips the seed verification.
	if _, err := cells.RestoreCell(2, good); err == nil {
		t.Fatal("mis-keyed cell restore accepted")
	}
	// Wrong record count.
	if _, err := cells.RestoreCell(1, cellRecord(recs[:1])); err == nil {
		t.Fatal("short cell restore accepted")
	}
	// Tampered seed.
	bad := append([]TaskRecord(nil), recs...)
	bad[0].Seed++
	if _, err := cells.RestoreCell(1, cellRecord(bad)); err == nil {
		t.Fatal("tampered seed accepted")
	}
	// Out-of-range cells.
	full, err := st.RunShard(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cells.EncodeCell(full, 7); err == nil {
		t.Fatal("out-of-range encode accepted")
	}
	if _, err := cells.RestoreCell(-1, good); err == nil {
		t.Fatal("out-of-range restore accepted")
	}

	// A cell record holds exactly one cell's chunk: a partial chunk, or
	// a checkpoint holding more than the cell, errors.
	partial, err := st.RunChunk(context.Background(), TaskRange{Lo: 2, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cells.EncodeCell(partial, 1); err == nil {
		t.Fatal("partial-cell encode accepted")
	}
	if _, err := cells.EncodeCell(full, 1); err == nil {
		t.Fatal("whole-study checkpoint encoded as one cell")
	}
}

// TestStudyRunsCopiesFingerprint: the checkpoints and outcomes a
// binding hands out carry copies of its fingerprint, so a caller that
// edits them changes nothing the binding produces next — chunk
// checkpoints, restored cells and folded outcomes keep Study's bytes.
func TestStudyRunsCopiesFingerprint(t *testing.T) {
	ctx := context.Background()
	st := cellCacheStudy(t, 2, []Level{idealLevel(), ideal2Level()})
	want := outcomeBytes(t, "Run")(st.Run(ctx))
	wantChunks := make([][]byte, 4)
	for c := range wantChunks {
		cp, err := st.RunChunk(ctx, TaskRange{Lo: 2 * c, Hi: 2*c + 2})
		if err != nil {
			t.Fatal(err)
		}
		wantChunks[c] = encodeBinary(cp)
	}
	sr := bindStore(t, NewRunStore(), st, "")
	tamper := func(fp Fingerprint) {
		for i := range fp.Axes {
			for l := range fp.Axes[i].Levels {
				fp.Axes[i].Levels[l] = "tampered"
			}
		}
	}
	var raw []byte
	for round := 0; round < 2; round++ {
		folder, err := sr.NewFolder(2)
		if err != nil {
			t.Fatal(err)
		}
		for c := range wantChunks {
			cp, err := sr.RunChunk(ctx, folder.Range(c))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeBinary(cp), wantChunks[c]) {
				t.Fatalf("round %d chunk %d: checkpoint differs from Study.RunChunk's", round, c)
			}
			if c == 1 {
				if raw, err = sr.EncodeCell(cp, c); err != nil {
					t.Fatal(err)
				}
				restored, err := sr.RestoreCell(c, raw)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encodeBinary(restored), wantChunks[c]) {
					t.Fatalf("round %d: restored cell differs from Study.RunChunk's", round)
				}
				tamper(restored.Fingerprint)
			}
			if err := folder.Fold(c, cp); err != nil {
				t.Fatal(err)
			}
			tamper(cp.Fingerprint)
		}
		out, err := folder.Outcome()
		if err != nil {
			t.Fatal(err)
		}
		if got := outcomeBytes(t, "fold")(out, nil); !bytes.Equal(got, want) {
			t.Fatalf("round %d: folded outcome differs from Study.Run", round)
		}
		for i := range out.Axes {
			out.Axes[i].Name = "tampered"
			for l := range out.Axes[i].Levels {
				out.Axes[i].Levels[l] = "tampered"
			}
		}
	}
}
