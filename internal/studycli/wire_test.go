package studycli

import (
	"encoding/json"
	"strings"
	"testing"
)

// The Config JSON schema is a wire protocol: pncoord publishes it to
// workers, pnserve accepts it from clients. These tests pin the schema
// itself — field names, omission behaviour, strictness — because a
// silent schema drift would make two builds disagree about what study
// a recipe describes.

func wireRecipe() Config {
	return Config{
		Scenario: "stress-clouds", Duration: 12,
		Storage: "ideal:0.047,supercap:0.047", Control: "pn,static", Util: "1,0.6",
		Reps: 8, Seed: 23, Paired: true,
		Bins: 32, HistLo: 4, HistHi: 6,
	}
}

func TestConfigRoundTrip(t *testing.T) {
	want := wireRecipe()
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeConfig(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip changed the recipe:\n got %+v\nwant %+v", got, want)
	}
}

// TestConfigWireFieldNames pins the exact JSON field names — renaming a
// tag is a protocol break, not a refactor.
func TestConfigWireFieldNames(t *testing.T) {
	raw, err := json.Marshal(wireRecipe())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	want := []string{"scenario", "duration", "storage", "control", "util",
		"reps", "seed", "paired", "bins", "hist_lo", "hist_hi"}
	if len(doc) != len(want) {
		t.Fatalf("wire document has %d fields %v, want %d", len(doc), doc, len(want))
	}
	for _, f := range want {
		if _, ok := doc[f]; !ok {
			t.Errorf("wire field %q missing from %s", f, raw)
		}
	}
}

// TestConfigDefaultOmission pins which fields vanish from the wire when
// zero: a default recipe must stay minimal (and therefore stable) so
// digests of equal recipes are equal bytes.
func TestConfigDefaultOmission(t *testing.T) {
	raw, err := json.Marshal(Config{Scenario: "stress-clouds", Reps: 4, Seed: 2017})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"scenario":"stress-clouds","reps":4,"seed":2017}`
	if string(raw) != want {
		t.Fatalf("minimal recipe encodes as %s, want %s", raw, want)
	}
}

// strictDecodeVectors are recipes DecodeConfig must refuse, each with
// the word its diagnostic must mention.
var strictDecodeVectors = []struct {
	name string
	raw  string
	want string
}{
	{"unknown field", `{"scenario":"x","reps":1,"seed":1,"utll":"1"}`, "utll"},
	{"wrong type", `{"scenario":"x","reps":"many","seed":1}`, "undecodable"},
	{"trailing document", `{"scenario":"x","reps":1,"seed":1}{"again":true}`, "trailing data"},
	{"not json", `scenario=x`, "undecodable"},
}

func TestDecodeConfigStrict(t *testing.T) {
	for _, tc := range strictDecodeVectors {
		_, err := DecodeConfig([]byte(tc.raw))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeConfig error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// Trailing whitespace is not trailing data.
	if _, err := DecodeConfig([]byte("{\"scenario\":\"x\",\"reps\":1,\"seed\":1}\n")); err != nil {
		t.Errorf("trailing newline refused: %v", err)
	}
}
