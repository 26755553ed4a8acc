package workload

import (
	"bytes"
	"strings"
	"testing"
)

func tinyRender(t *testing.T) *Image {
	t.Helper()
	img, err := CornellScene().Render(RenderOptions{Width: 8, Height: 6, SamplesPerPixel: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestWritePPM(t *testing.T) {
	img := tinyRender(t)
	var buf bytes.Buffer
	if err := img.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !strings.HasPrefix(string(out), "P6\n8 6\n255\n") {
		t.Fatalf("bad PPM header: %q", out[:16])
	}
	header := len("P6\n8 6\n255\n")
	if len(out) != header+3*8*6 {
		t.Errorf("PPM size %d, want %d", len(out), header+3*8*6)
	}
}

func TestPPMDeterministic(t *testing.T) {
	a := tinyRender(t)
	b := tinyRender(t)
	var ba, bb bytes.Buffer
	if err := a.WritePPM(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePPM(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("same seed produced different PPM bytes")
	}
}
