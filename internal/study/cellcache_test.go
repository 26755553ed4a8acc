package study

import (
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

func TestCellIdentityDigests(t *testing.T) {
	st := cellCacheStudy(t, 3, []Level{idealLevel(), ideal2Level()})
	ids, err := st.CellIdentities()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("%d identities, want 4", len(ids))
	}
	seen := map[string]int{}
	for i, ci := range ids {
		if len(ci.Seeds) != 3 {
			t.Fatalf("cell %d carries %d seeds", i, len(ci.Seeds))
		}
		d, err := ci.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[d]; dup {
			t.Fatalf("cells %d and %d share digest %s", prev, i, d)
		}
		seen[d] = i
	}
	// The same study built twice digests identically.
	again, err := cellCacheStudy(t, 3, []Level{idealLevel(), ideal2Level()}).CellIdentities()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		a, _ := ids[i].Digest()
		b, _ := again[i].Digest()
		if a != b {
			t.Fatalf("cell %d digest unstable across builds", i)
		}
	}
	// A different seed changes every digest.
	reseeded := cellCacheStudy(t, 3, []Level{idealLevel(), ideal2Level()})
	reseeded.Seed++
	other, err := reseeded.CellIdentities()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		a, _ := ids[i].Digest()
		b, _ := other[i].Digest()
		if a == b {
			t.Fatalf("cell %d digest ignores the study seed", i)
		}
	}
}

// TestCellIdentitySharedAcrossMatrices: two studies whose storage axes
// differ in the second level share cell identities for every cell of
// the first level — the cross-study reuse the serve cache performs.
func TestCellIdentitySharedAcrossMatrices(t *testing.T) {
	a := cellCacheStudy(t, 2, []Level{idealLevel(), ideal2Level()})
	b := cellCacheStudy(t, 2, []Level{idealLevel(), hybridLevel()})
	idsA, err := a.CellIdentities()
	if err != nil {
		t.Fatal(err)
	}
	idsB, err := b.CellIdentities()
	if err != nil {
		t.Fatal(err)
	}
	// Cells 0 and 1 (storage=ideal × both loads) occupy the same ledger
	// positions in both studies, so SeedPerTask seeds agree and the
	// identities must match; cells 2 and 3 differ in storage level.
	for c := 0; c < 2; c++ {
		da, _ := idsA[c].Digest()
		db, _ := idsB[c].Digest()
		if da != db {
			t.Fatalf("shared cell %d digests differ across matrices", c)
		}
	}
	for c := 2; c < 4; c++ {
		da, _ := idsA[c].Digest()
		db, _ := idsB[c].Digest()
		if da == db {
			t.Fatalf("cell %d digest ignores the storage level", c)
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
	raw, err := st.EncodeCell(cp, c)
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
	twin := cellCacheStudy(t, 2, []Level{idealLevel(), ideal2Level()})
	folder, err := twin.NewFolder(2) // chunk = one cell (reps = 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		chunk, err := st.RunChunk(ctx, folder.Range(c))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := st.EncodeCell(chunk, c)
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

	// Restoring into the wrong cell trips the seed verification.
	if _, err := st.RestoreCell(2, good); err == nil {
		t.Fatal("mis-keyed cell restore accepted")
	}
	// Wrong record count.
	if _, err := st.RestoreCell(1, cellRecord(recs[:1])); err == nil {
		t.Fatal("short cell restore accepted")
	}
	// Tampered seed.
	bad := append([]TaskRecord(nil), recs...)
	bad[0].Seed++
	if _, err := st.RestoreCell(1, cellRecord(bad)); err == nil {
		t.Fatal("tampered seed accepted")
	}
	// Out-of-range cells.
	full, err := st.RunShard(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.EncodeCell(full, 7); err == nil {
		t.Fatal("out-of-range encode accepted")
	}
	if _, err := st.RestoreCell(-1, good); err == nil {
		t.Fatal("out-of-range restore accepted")
	}

	// A cell record holds exactly one cell's chunk: a partial chunk, or
	// a checkpoint holding more than the cell, errors.
	partial, err := st.RunChunk(context.Background(), TaskRange{Lo: 2, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.EncodeCell(partial, 1); err == nil {
		t.Fatal("partial-cell encode accepted")
	}
	if _, err := st.EncodeCell(full, 1); err == nil {
		t.Fatal("whole-study checkpoint encoded as one cell")
	}
}
