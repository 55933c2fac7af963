package ocr

import (
	"fmt"
	"testing"

	"repro/internal/imagex"
)

// FuzzRecognize checks the row-code kernel against the byte-matcher
// reference on arbitrary rasters. The first two bytes set the width
// and height (1..64 each, so memory stays bounded); the rest are the
// pixels in row order, and pixels past the end of the input are
// paper. Recognize must not panic and must return exactly the
// reference's Result. The seed corpus lives in
// testdata/fuzz/FuzzRecognize; `make fuzz-smoke` runs a short fuzz.
func FuzzRecognize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		im := imagex.New(1+int(data[0]%64), 1+int(data[1]%64), 245)
		copy(im.Pix, data[2:])
		checkSame(t, fmt.Sprintf("%dx%d raster", im.W, im.H), im)
	})
}
