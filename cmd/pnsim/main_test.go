package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Pins of `pnsim -scenario stress-clouds -seed 7 -mc 4`: the SHA-256 of
// the -json summary object, each -csv row's seed and metric columns,
// and stdout with the output directory written as $DIR. They hold at
// every -workers value.
const (
	pinMCSummarySHA = "ce05088244ddcb78236d62a6e871d23aca25f0e9284862a9531770cf1a63c43c"
	pinMCStdout     = `wrote $DIR/campaign-stress-clouds.csv
wrote $DIR/c.json
campaign stress-clouds: 4 runs (base seed 7)
  survival rate:      25.0%
  total brownouts:    3
  within 5% of target: mean 25.2% (P5 1.8%, median 7.7%, P95 73.0%)
  instructions:       mean 273.641 G (min 58.477, max 539.244, σ 180.338, P25..P75 142.900..379.162)
  lifetime:           mean 106.559 s (min 31.947, max 240.000, σ 81.317, P25..P75 46.389..137.314)
  final supply:       mean 6.249 V (min 5.587, max 6.556, σ 0.396, P25..P75 6.121..6.556)
  min supply:         mean 4.390 V (min 4.100, max 5.260, σ 0.502, P25..P75 4.100..4.390)
  storage Δenergy:    mean 0.250 J (min 0.062, max 0.338, σ 0.113, P25..P75 0.211..0.338)
  supply dwell median: 6.281 V over 960 run-seconds
`
)

var pinMCRows = []string{
	"7191089600892374487,false,1,31.946733023387893,5.8476834852483055e+10,6.5556257620707665,4.10000000000464,0.06597552926065767,0.3383351193776658",
	"309689372594955804,false,1,51.20301452864075,1.71040970337589e+11,6.298358860582888,4.100000000029879,0.009154267747144491,0.26062285668005647",
	"-1830642326893942270,false,1,103.0858131732632,3.258009629563975e+11,6.5556194470145455,4.099999999999702,0.08812731597703567,0.338333173618776",
	"-7693578145408079413,true,0,240,5.392437102748041e+11,5.586934307175283,5.260088101289146,0.8436898866291886,0.06191885615627224",
}

// captureStdout runs f with os.Stdout redirected and returns what f
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := f()
	os.Stdout = saved
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// csvMetricRows returns each CSV row's seed column followed by its
// metric columns (survived … storage_denergy_j), comma-joined. Columns
// are found by header name, so identity columns around them may change.
func csvMetricRows(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, name := range recs[0] {
		col[name] = i
	}
	cols := []string{"seed", "survived", "brownouts", "lifetime_s", "instructions",
		"final_vc_v", "min_vc_v", "stability_pct5", "storage_denergy_j"}
	var rows []string
	for _, rec := range recs[1:] {
		var vals []string
		for _, name := range cols {
			i, ok := col[name]
			if !ok {
				t.Fatalf("CSV header %v has no %q column", recs[0], name)
			}
			vals = append(vals, rec[i])
		}
		rows = append(rows, strings.Join(vals, ","))
	}
	return rows
}

// summarySHA returns the hex SHA-256 of the raw "summary" object bytes
// of a -json document.
func summarySHA(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	s, ok := doc["summary"]
	if !ok {
		t.Fatal("JSON document has no summary object")
	}
	sum := sha256.Sum256(s)
	return hex.EncodeToString(sum[:])
}

// TestMonteCarloPinned: the -mc path's summary, per-run metrics and
// stdout are pinned, at 1 and 3 workers.
func TestMonteCarloPinned(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			stdout := captureStdout(t, func() error {
				return runScenario("stress-clouds", 7, 4, workers, dir, dir+"/c.json")
			})
			if got := strings.ReplaceAll(stdout, dir, "$DIR"); got != pinMCStdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, pinMCStdout)
			}
			if got := summarySHA(t, dir+"/c.json"); got != pinMCSummarySHA {
				t.Errorf("summary SHA-256 %s, want %s", got, pinMCSummarySHA)
			}
			rows := strings.Join(csvMetricRows(t, filepath.Join(dir, "campaign-stress-clouds.csv")), "\n")
			if want := strings.Join(pinMCRows, "\n"); rows != want {
				t.Errorf("CSV rows:\n%s\nwant:\n%s", rows, want)
			}
		})
	}
}
