package jsonw

import (
	"encoding/json"
	"math"
	"testing"
)

// TestAppendMatchesEncodingJSON pins strings and floats to
// json.Marshal's bytes at the edges of its escaping and number rules.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", "<a href=\"x\">&amp;</a>", "back\\slash", "\b\f\n\r\t",
		"\x00\x01\x1f\x7f", "ls\u2028ps\u2029", "bad\xff\xfe", "\xe2\x80", "\xed\xa0\x80",
		"h\u00e9llo \U0001f600",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.999999999999999e-7, 1e-7, -1e-10,
		1e20, 1e21, 9.999999999999999e20, 123456789012345678, 5e-324, math.MaxFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%g) = %s, encoding/json %s", f, got, want)
		}
	}
}

// TestWriterLayout pins the separators and indentation against
// json.Encoder with SetIndent("", "  "), empty containers included,
// and the first non-finite float's error.
func TestWriterLayout(t *testing.T) {
	type doc struct {
		A []int            `json:"a"`
		B map[string]any   `json:"b"`
		C []map[string]int `json:"c"`
		D *int             `json:"d"`
		E bool             `json:"e"`
	}
	write := func(indent bool) []byte {
		w := NewWriter(nil, indent)
		w.BeginObject()
		w.Key("a")
		w.BeginArray()
		w.EndArray()
		w.Key("b")
		w.BeginObject()
		w.EndObject()
		w.Key("c")
		w.BeginArray()
		w.BeginObject()
		w.Key("x")
		w.Int(1)
		w.Key("y")
		w.Int(-2)
		w.EndObject()
		w.BeginObject()
		w.EndObject()
		w.EndArray()
		w.Key("d")
		w.Null()
		w.Key("e")
		w.Bool(true)
		w.EndObject()
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
		return append(w.B, '\n')
	}
	v := doc{A: []int{}, B: map[string]any{}, C: []map[string]int{{"x": 1, "y": -2}, {}}, E: true}
	for _, indent := range []bool{false, true} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if indent {
			want, err = json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := write(indent); string(got) != string(want)+"\n" {
			t.Errorf("indent %v:\n%s\nvs encoding/json\n%s", indent, got, want)
		}
	}

	w := NewWriter(nil, false)
	w.BeginArray()
	w.FloatOrNull(math.NaN())
	w.Float(math.Inf(-1))
	w.Float(math.NaN())
	w.EndArray()
	_, want := json.Marshal([]float64{math.Inf(-1)})
	if w.Err() == nil || want == nil || w.Err().Error() != want.Error() {
		t.Errorf("error %v, encoding/json %v", w.Err(), want)
	}
}
