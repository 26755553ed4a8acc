// Package studycli builds study.Study values from a serialisable,
// flag-level recipe — the study-identity surface shared by the pnstudy
// and pncoord CLIs. The same Config always builds the same study
// fingerprint, which is what lets separate shard, resume and merge
// invocations cooperate, and what lets a coordinator hand its recipe
// to `pnstudy -worker` processes over HTTP knowing they will execute
// bit-identically the same matrix.
package studycli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"pnps/internal/buffer"
	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/soc"
	"pnps/internal/study"
)

// Config is the study-identity recipe: everything that determines the
// matrix, the seeds and the fingerprint — and nothing that does not
// (worker counts and progress reporting are execution detail). It is
// JSON-serialisable so a coordinator can publish it to workers.
type Config struct {
	Scenario string  `json:"scenario"`
	Duration float64 `json:"duration,omitempty"`
	Storage  string  `json:"storage,omitempty"`
	Control  string  `json:"control,omitempty"`
	Util     string  `json:"util,omitempty"`
	Reps     int     `json:"reps"`
	Seed     int64   `json:"seed"`
	Paired   bool    `json:"paired,omitempty"`
	Bins     int     `json:"bins,omitempty"`
	HistLo   float64 `json:"hist_lo,omitempty"`
	HistHi   float64 `json:"hist_hi,omitempty"`
}

// Flags are the command-line surface pnstudy and pncoord share: the
// study-identity (matrix) flags, which fill Config, and the export flags
// naming the files a finished outcome is written to.
type Flags struct {
	Config                  Config
	CellsCSV, RunsCSV, JSON string
}

// RegisterFlags declares the matrix and export flags on fs; their values
// land in the returned Flags once fs is parsed.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	c := &f.Config
	fs.StringVar(&c.Scenario, "scenario", "stress-clouds", "registered base scenario")
	fs.Float64Var(&c.Duration, "duration", 0, "override scenario duration, seconds (0 keeps the registered value)")
	fs.StringVar(&c.Storage, "storage", "", "storage axis: ideal:F,supercap:F,hybrid:F:R")
	fs.StringVar(&c.Control, "control", "", "control axis: pn, static, or governor names")
	fs.StringVar(&c.Util, "util", "", "workload axis: utilisations in [0,1]")
	fs.IntVar(&c.Reps, "reps", 4, "Monte-Carlo repetitions per cell")
	fs.Int64Var(&c.Seed, "seed", 2017, "study base seed")
	fs.BoolVar(&c.Paired, "paired", false, "common random numbers: one realisation per repetition across all cells")
	fs.IntVar(&c.Bins, "bins", 250, "dwell-time voltage histogram bins (0 disables)")
	fs.Float64Var(&c.HistLo, "histlo", 0, "dwell histogram lower bound, volts")
	fs.Float64Var(&c.HistHi, "histhi", 10, "dwell histogram upper bound, volts")
	fs.StringVar(&f.CellsCSV, "cells-csv", "", "write per-cell aggregates as CSV to this file")
	fs.StringVar(&f.RunsCSV, "runs-csv", "", "write per-run outcomes as CSV to this file")
	fs.StringVar(&f.JSON, "json", "", "write the full aggregate as JSON to this file")
	return f
}

// WriteExports writes out to every export file the flags name.
func (f *Flags) WriteExports(out *study.StudyOutcome) error {
	for _, e := range []struct {
		path  string
		write func(io.Writer) error
	}{{f.CellsCSV, out.WriteCellsCSV}, {f.RunsCSV, out.WriteRunsCSV}, {f.JSON, out.WriteJSON}} {
		if e.path == "" {
			continue
		}
		if err := WriteFileAtomic(e.path, e.write); err != nil {
			return err
		}
	}
	return nil
}

// DecodeConfig parses a wire-format recipe strictly: unknown fields are
// rejected, not ignored. The recipe is the one schema pnserve, pncoord
// and `pnstudy -worker` agree on, and silently dropping a field the
// sender thought mattered (a typo'd "utll", a field from a newer
// version) would make two machines build *different* studies from what
// they believe is the same recipe — the exact skew the fingerprint
// exists to catch, better refused at the parse boundary with a
// diagnostic than later with a fingerprint mismatch.
func DecodeConfig(raw []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("studycli: undecodable recipe: %w", err)
	}
	// A second document in the stream is as suspect as an unknown field.
	if dec.More() {
		return Config{}, fmt.Errorf("studycli: trailing data after recipe")
	}
	return c, nil
}

// Build assembles the study from the recipe. The same Config always
// builds the same fingerprint.
func (c Config) Build() (study.Study, error) {
	base, ok := scenario.Lookup(c.Scenario)
	if !ok {
		return study.Study{}, fmt.Errorf("unknown scenario %q (known: %v)", c.Scenario, scenario.Names())
	}
	if c.Duration > 0 {
		base.Duration = c.Duration
	}
	st := study.Study{
		Name: "pnstudy-" + c.Scenario, Base: base,
		Reps: c.Reps, Seed: c.Seed,
		VCHistBins: c.Bins, VCHistLo: c.HistLo, VCHistHi: c.HistHi,
	}
	if c.Paired {
		st.SeedMode = study.SeedPerRep
	}
	if c.Storage != "" {
		ax, err := ParseStorageAxis(c.Storage)
		if err != nil {
			return study.Study{}, err
		}
		st.Axes = append(st.Axes, ax)
	}
	if c.Control != "" {
		st.Axes = append(st.Axes, ParseControlAxis(c.Control))
	}
	if c.Util != "" {
		ax, err := ParseUtilAxis(c.Util)
		if err != nil {
			return study.Study{}, err
		}
		st.Axes = append(st.Axes, ax)
	}
	return st, nil
}

// ParseStorageAxis parses "ideal:0.047,supercap:0.047,hybrid:0.01:1"
// into a storage axis; the spec strings are the level labels.
func ParseStorageAxis(s string) (study.Axis, error) {
	var levels []study.Level
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		parts := strings.Split(spec, ":")
		farads := func(i int) (float64, error) {
			if i >= len(parts) {
				return 0, fmt.Errorf("storage spec %q: missing capacitance", spec)
			}
			v, err := strconv.ParseFloat(parts[i], 64)
			if err != nil || !(v > 0) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("storage spec %q: bad capacitance %q", spec, parts[i])
			}
			return v, nil
		}
		switch parts[0] {
		case "ideal":
			fd, err := farads(1)
			if err != nil {
				return study.Axis{}, err
			}
			levels = append(levels, study.Storage(spec, sim.IdealCap{Farads: fd}))
		case "supercap":
			fd, err := farads(1)
			if err != nil {
				return study.Axis{}, err
			}
			levels = append(levels, study.Storage(spec, sim.NewSupercap(buffer.Supercap{
				Farads: fd, ESROhms: 0.05, LeakOhms: 5000, VMax: soc.MaxOperatingVolts,
			})))
		case "hybrid":
			fd, err := farads(1)
			if err != nil {
				return study.Axis{}, err
			}
			res, err := farads(2)
			if err != nil {
				return study.Axis{}, err
			}
			levels = append(levels, study.Storage(spec, sim.HybridCap{
				NodeFarads: fd, ReservoirFarads: res,
				DiodeDropVolts: 0.35, DiodeOhms: 0.2,
				ChargeOhms: 10, LeakOhms: 20000,
			}))
		default:
			return study.Axis{}, fmt.Errorf("storage spec %q: unknown family %q (ideal, supercap, hybrid)", spec, parts[0])
		}
	}
	return study.NewAxis("storage", levels...), nil
}

// ParseControlAxis parses "pn,static,ondemand" into a control axis;
// governor names are validated at assembly time, not here.
func ParseControlAxis(s string) study.Axis {
	var levels []study.Level
	for _, name := range strings.Split(s, ",") {
		switch name = strings.TrimSpace(name); name {
		case "pn", "power-neutral":
			levels = append(levels, study.PowerNeutral())
		case "static":
			levels = append(levels, study.Control("static", scenario.Uncontrolled()))
		default:
			levels = append(levels, study.Governor(name))
		}
	}
	return study.NewAxis("control", levels...)
}

// ParseUtilAxis parses "1,0.6,0.3" into a workload axis.
func ParseUtilAxis(s string) (study.Axis, error) {
	var levels []study.Level
	for _, part := range strings.Split(s, ",") {
		u, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(u >= 0 && u <= 1) {
			return study.Axis{}, fmt.Errorf("bad utilisation %q (want [0,1])", part)
		}
		levels = append(levels, study.Utilisation(u))
	}
	return study.NewAxis("load", levels...), nil
}

// WriteFileAtomic writes atomically and durably (temp file, fsync,
// rename, fsync of the directory): a crash, power loss or disk-full
// mid-write must never truncate an existing checkpoint or export —
// losing completed work is the exact failure the resumable ledger
// exists to survive.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// PrintOutcome renders the per-cell table, the per-axis marginals and
// the overall aggregate of a completed study.
func PrintOutcome(w io.Writer, st study.Study, out *study.StudyOutcome) {
	fmt.Fprintf(w, "study %s: %d cells × %d reps = %d runs (seed %d)\n\n",
		st.Name, len(out.Cells), st.Reps, out.Summary.Runs, st.Seed)
	keyWidth := len("cell")
	for _, c := range out.Cells {
		if len(c.Cell.Key) > keyWidth {
			keyWidth = len(c.Cell.Key)
		}
	}
	fmt.Fprintf(w, "%-*s  %-9s %-9s %-22s %-11s %s\n", keyWidth, "cell",
		"survival", "brownouts", "within ±5% (P25..P75)", "mean instr", "dwell med")
	for _, c := range out.Cells {
		s := c.Summary
		key := c.Cell.Key
		if key == "" {
			key = "(all)"
		}
		dwell := "-"
		if c.DwellVC != nil {
			dwell = fmt.Sprintf("%.3f V", c.DwellVC.Median)
		}
		fmt.Fprintf(w, "%-*s  %6.1f%%  %-9d %5.1f%% (%4.1f..%4.1f%%)     %7.2f G   %s\n",
			keyWidth, key, s.SurvivalRate*100, s.TotalBrownouts,
			s.Stability.Mean*100, s.Stability.P25*100, s.Stability.P75*100,
			s.Instructions.Mean/1e9, dwell)
	}
	if len(out.Marginals) > 0 {
		fmt.Fprintln(w, "\nmarginals (each level aggregated across all other axes):")
		for _, m := range out.Marginals {
			s := m.Summary
			fmt.Fprintf(w, "  %-10s %-22s survival %5.1f%%  within ±5%% %5.1f%%  instr %7.2f G\n",
				m.Axis, m.Level, s.SurvivalRate*100, s.Stability.Mean*100, s.Instructions.Mean/1e9)
		}
	}
	s := out.Summary
	fmt.Fprintf(w, "\noverall: survival %.1f%%, within ±5%% mean %.1f%% (P5 %.1f%%, median %.1f%%, P95 %.1f%%)\n",
		s.SurvivalRate*100, s.Stability.Mean*100,
		s.Stability.P5*100, s.Stability.Median*100, s.Stability.P95*100)
	if out.DwellVC != nil {
		fmt.Fprintf(w, "supply dwell: median %.3f V (P25..P75 %.3f..%.3f V) over %.0f run-seconds\n",
			out.DwellVC.Median, out.DwellVC.P25, out.DwellVC.P75, out.VCHistogram.Total())
	}
}
