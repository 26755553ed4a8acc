package pv

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// accuracy grid shared by the fast-vs-exact comparisons: voltages from
// short circuit past Voc, irradiances from dawn to beyond full sun.
var (
	gridG = []float64{1, 20, 100, 250, 500, 850, 1000, 1200}
	gridV = []float64{0, 0.5, 1, 2, 3, 4, 4.5, 5, 5.3, 5.8, 6.2, 6.6, 7}
)

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(b))
}

// TestSolverCurrentAtMatchesExact sweeps an irradiance/voltage grid in an
// order that stresses the warm start (large jumps between consecutive
// solves) and requires agreement with the exact bracketed solver within
// 1e-6 relative — the accuracy bound the sim fast path is allowed.
func TestSolverCurrentAtMatchesExact(t *testing.T) {
	for _, arr := range []*Array{SouthamptonArray(), SmallArray()} {
		s := NewSolver(arr)
		for _, g := range gridG {
			for k := range gridV {
				// Alternate ends of the voltage range so the warm seed is
				// frequently far from the root.
				v := gridV[k]
				if k%2 == 1 {
					v = gridV[len(gridV)-1-k/2]
				}
				fast, err := s.CurrentAt(v, g)
				if err != nil {
					t.Fatalf("fast CurrentAt(%g, %g): %v", v, g, err)
				}
				exact, err := arr.CurrentAt(v, g)
				if err != nil {
					t.Fatalf("exact CurrentAt(%g, %g): %v", v, g, err)
				}
				if d := relDiff(fast, exact); d > 1e-6 {
					t.Errorf("CurrentAt(%g, %g): fast %g vs exact %g (rel %g)", v, g, fast, exact, d)
				}
			}
		}
	}
}

func TestSolverOpenCircuitVoltageMatchesExact(t *testing.T) {
	arr := SouthamptonArray()
	s := NewSolver(arr)
	for _, g := range gridG {
		fast, err := s.OpenCircuitVoltage(g)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := arr.OpenCircuitVoltage(g)
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(fast, exact); d > 1e-6 {
			t.Errorf("Voc(%g): fast %g vs exact %g (rel %g)", g, fast, exact, d)
		}
		// The open-circuit current at the fast Voc must be ~zero.
		i, err := arr.CurrentAt(fast, g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(i) > 1e-9 {
			t.Errorf("I(Voc=%g, g=%g) = %g, want ~0", fast, g, i)
		}
	}
	if v, err := s.OpenCircuitVoltage(0); err != nil || v != 0 {
		t.Errorf("Voc(0) = %g, %v; want 0, nil", v, err)
	}
}

func TestSolverAvailablePowerMatchesExact(t *testing.T) {
	arr := SouthamptonArray()
	s := NewSolver(arr)
	for _, g := range gridG {
		fast, err := s.AvailablePower(g)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := arr.AvailablePower(g)
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(fast, exact); d > 1e-6 {
			t.Errorf("AvailablePower(%g): fast %g vs exact %g (rel %g)", g, fast, exact, d)
		}
	}
	if p, err := s.AvailablePower(0); err != nil || p != 0 {
		t.Errorf("AvailablePower(0) = %g, %v; want 0, nil", p, err)
	}
}

// TestSolverMemoisation verifies repeated MPP queries at one irradiance
// hit the memo (same struct back) and that the memo caps rather than
// growing without bound.
func TestSolverMemoisation(t *testing.T) {
	s := NewSolver(SouthamptonArray())
	m1, err := s.MaximumPowerPoint(850)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.MaximumPowerPoint(850)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("memoised MPP differs: %+v vs %+v", m1, m2)
	}
	if len(s.mpp) != 1 {
		t.Errorf("memo holds %d entries, want 1", len(s.mpp))
	}
	// Fill past the cap and confirm the map was reset, not grown.
	for i := 0; i <= memoCap; i++ {
		if _, err := s.OpenCircuitVoltage(100 + float64(i)*1e-3); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.voc) > memoCap {
		t.Errorf("voc memo grew to %d entries, cap is %d", len(s.voc), memoCap)
	}
}

// refSolver is the warm-started CurrentAt as it stood before its per-array
// invariants moved into NewSolver: every array field read and divided in
// the loop. It is kept only as the bit-identity oracle for Solver.
type refSolver struct {
	a                            *Array
	warm                         bool
	prevI, prevV, prevIl, prevDf float64
}

func (s *refSolver) CurrentAt(v, g float64) (float64, error) {
	il := s.a.LightCurrent(g)
	vt := s.a.thermalVoltageString()

	i := il
	if s.warm {
		i = s.prevI
		if s.a.Rs > 0 && s.prevDf != 0 {
			i += -(s.prevDf+1)/(s.a.Rs*s.prevDf)*(v-s.prevV) - (il-s.prevIl)/s.prevDf
		}
	}
	var df float64
	for iter := 0; iter < 40; iter++ {
		arg := (v + s.a.Rs*i) / vt
		if arg > 500 {
			arg = 500
		}
		em1 := expm1(arg)
		f := il - s.a.I0*em1 - (v+s.a.Rs*i)/s.a.Rp - i
		df = -s.a.I0*(em1+1)*s.a.Rs/vt - s.a.Rs/s.a.Rp - 1
		next := i - f/df
		if math.IsNaN(next) || math.IsInf(next, 0) {
			break
		}
		if math.Abs(next-i) < 1e-12*(1+math.Abs(i)) {
			s.prevI, s.prevV, s.prevIl, s.prevDf = next, v, il, df
			s.warm = true
			return next, nil
		}
		i = next
	}
	iex, err := s.a.CurrentAt(v, g)
	if err == nil {
		s.prevI, s.prevV, s.prevIl, s.prevDf = iex, v, il, 0
		s.warm = true
	}
	return iex, err
}

// TestSolverCurrentAtBitIdenticalToReference drives Solver and the
// pre-hoisting reference along one long random (v, g) walk — small
// integration-like moves, jumps across the IV curve, negative and zero
// irradiance, repeated irradiance (the light-current cache) and voltages
// far enough out to clamp the diode exponent and reach the exact
// fallback — and requires the same result bits and error at every call.
// An array without series resistance covers the unextrapolated seed.
func TestSolverCurrentAtBitIdenticalToReference(t *testing.T) {
	noRs := SouthamptonArray()
	noRs.Rs = 0
	for _, arr := range []*Array{SouthamptonArray(), SmallArray(), noRs} {
		fast, ref := NewSolver(arr), &refSolver{a: arr}
		rng := rand.New(rand.NewSource(3))
		v, g := 5.3, 900.0
		for k := 0; k < 200000; k++ {
			switch r := rng.Float64(); {
			case r < 0.001:
				v = 150 + 400*rng.Float64() // clamped exponent
			case r < 0.01:
				v = -2 + 10*rng.Float64() // jump across the curve
			default:
				v += 1e-3 * rng.NormFloat64()
			}
			switch r := rng.Float64(); {
			case r < 0.002:
				g = 0
			case r < 0.003:
				g = -50
			case r < 0.02:
				g = 1200 * rng.Float64()
			case r < 0.5:
				g += rng.NormFloat64()
			}
			got, gerr := fast.CurrentAt(v, g)
			want, werr := ref.CurrentAt(v, g)
			if math.Float64bits(got) != math.Float64bits(want) || (gerr == nil) != (werr == nil) {
				t.Fatalf("%+v step %d: CurrentAt(%b, %b) = %b, %v; reference %b, %v",
					*arr, k, v, g, got, gerr, want, werr)
			}
		}
		// With Rs = 0 the residual is linear in I and Newton never fails.
		if _, exact := fast.Work(); exact == 0 && arr.Rs > 0 {
			t.Errorf("%+v: the walk never reached the exact fallback", *arr)
		}
	}
}

// TestSolverDeterministicGivenCallSequence: two solvers fed the same call
// sequence must produce bit-identical results (the per-engine ownership
// contract that keeps parallel sweeps reproducible).
func TestSolverDeterministicGivenCallSequence(t *testing.T) {
	s1 := NewSolver(SouthamptonArray())
	s2 := NewSolver(SouthamptonArray())
	for k := 0; k < 500; k++ {
		v := 5.3 + 1.5*math.Sin(float64(k)*0.7)
		g := 600 + 400*math.Cos(float64(k)*0.3)
		i1, err1 := s1.CurrentAt(v, g)
		i2, err2 := s2.CurrentAt(v, g)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if i1 != i2 {
			t.Fatalf("step %d: %g != %g", k, i1, i2)
		}
	}
}

// standardMPPEntry reports whether the process-wide memo holds arr.
func standardMPPEntry(arr *Array) bool {
	standardMPPs.Lock()
	defer standardMPPs.Unlock()
	_, ok := standardMPPs.m[*arr]
	return ok
}

// TestStandardMPPBitIdentical checks the process-wide memo returns the
// same bits as the exact solve, on a miss and on a hit, for distinct
// arrays and for two distinct pointers to equal array values.
func TestStandardMPPBitIdentical(t *testing.T) {
	for _, arr := range []*Array{SouthamptonArray(), SmallArray(), SouthamptonArray()} {
		want, err := arr.MaximumPowerPoint(StandardIrradiance)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := arr.StandardMPP()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("pass %d: memoised MPP %+v != exact %+v", pass, got, want)
			}
		}
		if !standardMPPEntry(arr) {
			t.Errorf("array %+v not memoised", *arr)
		}
	}
}

// TestStandardMPPConcurrent races callers over two arrays; run under
// -race it checks the memo's locking, and every reply must be exact.
func TestStandardMPPConcurrent(t *testing.T) {
	arrs := []*Array{SouthamptonArray(), SmallArray()}
	want := make([]MPP, len(arrs))
	for i, arr := range arrs {
		var err error
		if want[i], err = arr.MaximumPowerPoint(StandardIrradiance); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arr := *arrs[g%len(arrs)] // a fresh pointer per caller
			got, err := arr.StandardMPP()
			if err == nil && got != want[g%len(arrs)] {
				err = fmt.Errorf("caller %d: MPP %+v != exact %+v", g, got, want[g%len(arrs)])
			}
			if err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStandardMPPRefusesAndDoesNotCache checks that invalid arrays (NaN
// and Inf parameters included) are refused before any solve, and that an
// array that validates but whose solve fails returns the error every
// time without leaving an entry behind.
func TestStandardMPPRefusesAndDoesNotCache(t *testing.T) {
	for name, mut := range map[string]func(*Array){
		"nan-isc":  func(a *Array) { a.IscSTC = math.NaN() },
		"nan-area": func(a *Array) { a.AreaCM2 = math.NaN() },
		"inf-rp":   func(a *Array) { a.Rp = math.Inf(1) },
		"zero-n":   func(a *Array) { a.N = 0 },
	} {
		arr := SouthamptonArray()
		mut(arr)
		if _, err := arr.StandardMPP(); err == nil {
			t.Errorf("%s: invalid array accepted", name)
		}
		if standardMPPEntry(arr) {
			t.Errorf("%s: invalid array memoised", name)
		}
	}

	// A light current so large that hi-1 == hi defeats the bracket walk:
	// valid parameters, failing solve.
	failing := SouthamptonArray()
	failing.IscSTC = 1e300
	if err := failing.Validate(); err != nil {
		t.Fatalf("failing array should validate: %v", err)
	}
	if _, err := failing.MaximumPowerPoint(StandardIrradiance); err == nil {
		t.Fatal("expected the exact solve to fail for IscSTC=1e300")
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := failing.StandardMPP(); err == nil {
			t.Fatalf("pass %d: failing solve returned no error", pass)
		}
	}
	if standardMPPEntry(failing) {
		t.Error("failed solve was memoised")
	}
}
