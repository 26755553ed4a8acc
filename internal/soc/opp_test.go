package soc

import (
	"testing"
	"testing/quick"
)

func TestCoreConfigString(t *testing.T) {
	cases := map[CoreConfig]string{
		{Little: 1}:         "1xA7",
		{Little: 4}:         "4xA7",
		{Little: 4, Big: 2}: "4xA7+2xA15",
	}
	for cfg, want := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", cfg, got, want)
		}
	}
}

func TestCoreConfigValid(t *testing.T) {
	valid := []CoreConfig{{Little: 1}, {Little: 4, Big: 4}, {Little: 2, Big: 3}}
	invalid := []CoreConfig{{}, {Little: 0, Big: 1}, {Little: 5}, {Little: 1, Big: 5}, {Little: -1}}
	for _, c := range valid {
		if !c.Valid() {
			t.Errorf("%v should be valid", c)
		}
	}
	for _, c := range invalid {
		if c.Valid() {
			t.Errorf("%v should be invalid", c)
		}
	}
}

func TestQuickConfigClampAlwaysValid(t *testing.T) {
	f := func(l, b int8) bool {
		return CoreConfig{Little: int(l), Big: int(b)}.Clamp().Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfigLadder(t *testing.T) {
	ladder := ConfigLadder()
	if len(ladder) != 8 {
		t.Fatalf("ladder length %d", len(ladder))
	}
	for i, cfg := range ladder {
		if !cfg.Valid() {
			t.Errorf("ladder[%d] = %v invalid", i, cfg)
		}
		if cfg.TotalCores() != i+1 {
			t.Errorf("ladder[%d] has %d cores, want %d", i, cfg.TotalCores(), i+1)
		}
	}
}

func TestFrequencyLevels(t *testing.T) {
	fl := FrequencyLevels()
	if len(fl) != NumFrequencyLevels {
		t.Fatalf("got %d levels", len(fl))
	}
	// The paper's exact list.
	want := []float64{0.2e9, 0.45e9, 0.72e9, 0.92e9, 1.1e9, 1.2e9, 1.3e9, 1.4e9}
	for i := range want {
		if fl[i] != want[i] {
			t.Errorf("level %d = %g, want %g", i, fl[i], want[i])
		}
	}
	for i := 1; i < len(fl); i++ {
		if fl[i] <= fl[i-1] {
			t.Errorf("levels not ascending at %d", i)
		}
	}
}

func TestOPPBasics(t *testing.T) {
	min, max := MinOPP(), MaxOPP()
	if !min.Valid() || !max.Valid() {
		t.Fatal("boundary OPPs invalid")
	}
	if min.Frequency() != 0.2e9 || max.Frequency() != 1.4e9 {
		t.Error("boundary frequencies wrong")
	}
	if min.Config.TotalCores() != 1 || max.Config.TotalCores() != 8 {
		t.Error("boundary core counts wrong")
	}
	if s := max.String(); s != "4xA7+4xA15@1.40GHz" {
		t.Errorf("String = %q", s)
	}
}

func TestQuickOPPClampAlwaysValid(t *testing.T) {
	f := func(fi int8, l, b int8) bool {
		o := OPP{FreqIdx: int(fi), Config: CoreConfig{Little: int(l), Big: int(b)}}
		return o.Clamp().Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllOPPs(t *testing.T) {
	opps := AllOPPs()
	want := 4 * 5 * NumFrequencyLevels // 4 LITTLE counts × 5 big counts × 8 levels
	if len(opps) != want {
		t.Fatalf("got %d OPPs, want %d", len(opps), want)
	}
	seen := map[OPP]bool{}
	for _, o := range opps {
		if !o.Valid() {
			t.Errorf("invalid OPP %v enumerated", o)
		}
		if seen[o] {
			t.Errorf("duplicate OPP %v", o)
		}
		seen[o] = true
	}
}
