package studycli

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeConfig feeds arbitrary bytes to the wire-recipe decoder,
// the schema pnserve, pncoord and `pnstudy -worker` accept from outside
// the process. Nothing may panic, and every recipe it accepts must
// build (or refuse to build) without panicking and survive a
// json.Marshal → DecodeConfig round trip unchanged.
func FuzzDecodeConfig(f *testing.F) {
	for _, tc := range strictDecodeVectors {
		f.Add([]byte(tc.raw))
	}
	for _, raw := range nonFiniteRecipes {
		f.Add([]byte(raw))
	}
	wire, err := json.Marshal(wireRecipe())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := DecodeConfig(raw)
		if err != nil {
			return
		}
		_, _ = c.Build()
		again, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted recipe %+v does not encode: %v", c, err)
		}
		back, err := DecodeConfig(again)
		if err != nil {
			t.Fatalf("re-encoded recipe %s refused: %v", again, err)
		}
		if back != c {
			t.Fatalf("round trip changed the recipe:\n%+v\nvs\n%+v", back, c)
		}
	})
}
