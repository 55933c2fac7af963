package imagex

import (
	"bytes"
	"testing"
)

// FuzzDecode fuzzes the SIMG decoder, which reads every image the
// crawler fetches. Decoding must never panic, and any payload it
// accepts must be the exact encoding of the image it yields and must
// survive a pack round trip. The seed corpus lives in
// testdata/fuzz/FuzzDecode; `make fuzz-smoke` runs a short fuzz.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(im.Encode(), data) {
			t.Fatalf("Decode accepted a payload that does not re-encode to itself")
		}
		checkPackRoundTrip(t, []*Image{im})
	})
}

// FuzzDecodePackZip fuzzes the pack decoder, which reads every zip
// archive the crawler fetches from cloud storage. Decoding must never
// panic, and any archive it accepts must re-encode to a pack that
// decodes to the same pixels. The seed corpus in
// testdata/fuzz/FuzzDecodePackZip holds a Huffman-only pack, a
// stored-entry pack, a truncated archive, a pack with a non-SIMG entry
// and one whose entry has a bad magic.
func FuzzDecodePackZip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		images, err := DecodePackZip(data)
		if err != nil {
			return
		}
		checkPackRoundTrip(t, images)
	})
}

// checkPackRoundTrip encodes images as a pack and requires the pack to
// decode to the same images.
func checkPackRoundTrip(t *testing.T, images []*Image) {
	t.Helper()
	data, err := EncodePackZip(images)
	if err != nil {
		t.Fatalf("EncodePackZip: %v", err)
	}
	back, err := DecodePackZip(data)
	if err != nil {
		t.Fatalf("DecodePackZip of a fresh pack: %v", err)
	}
	if len(back) != len(images) {
		t.Fatalf("pack of %d images decoded to %d", len(images), len(back))
	}
	for i, im := range images {
		if back[i].W != im.W || back[i].H != im.H || !bytes.Equal(back[i].Pix, im.Pix) {
			t.Fatalf("image %d changed in the pack round trip", i)
		}
	}
}
