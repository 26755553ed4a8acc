package workload

import (
	"bufio"
	"fmt"
	"io"
)

// WritePPM encodes the framebuffer as a binary PPM (P6) image with the
// smallpt gamma of 2.2 — the same output format as the original program.
func (im *Image) WritePPM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", im.Width, im.Height); err != nil {
		return err
	}
	buf := make([]byte, 0, 3*im.Width)
	for y := 0; y < im.Height; y++ {
		buf = buf[:0]
		for x := 0; x < im.Width; x++ {
			p := im.Pixels[y*im.Width+x]
			buf = append(buf, ToSRGB(p.X), ToSRGB(p.Y), ToSRGB(p.Z))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
