package imagex

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
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
// panic. Each input goes twice through one PackDecoder, the second
// pass served from its memo, and both passes must agree with
// referenceDecodePackZip: the same error, or the same pixels, with
// every carried digest (hash and skin statistics) equal to a fresh
// DigestOf. An accepted archive must
// re-encode to a pack that decodes to the same pixels. The seed
// corpus in testdata/fuzz/FuzzDecodePackZip holds a Huffman-only
// pack, a stored-entry pack, a truncated archive, a pack with a
// non-SIMG entry, one whose entry has a bad magic, a pack that repeats
// a member and one whose member claims a 1 GiB uncompressed size.
func FuzzDecodePackZip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceDecodePackZip(data)
		var d PackDecoder
		for pass := 1; pass <= 2; pass++ {
			images, digests, err := d.Decode(data)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("pass %d: error %v, reference %v", pass, err, wantErr)
			}
			if err != nil {
				continue
			}
			if len(images) != len(want) || len(digests) != len(want) {
				t.Fatalf("pass %d: %d images and %d digests, reference %d images",
					pass, len(images), len(digests), len(want))
			}
			for i, im := range images {
				if im.W != want[i].W || im.H != want[i].H || !bytes.Equal(im.Pix, want[i].Pix) {
					t.Fatalf("pass %d: image %d differs from the reference", pass, i)
				}
				if fresh := DigestOf(want[i]); digests[i] != fresh {
					t.Fatalf("pass %d: image %d carries digest %v, fresh %v", pass, i, digests[i], fresh)
				}
			}
		}
		if wantErr == nil {
			checkPackRoundTrip(t, want)
		}
	})
}

// referenceDecodePackZip is the pack decoder before members were
// shared: it inflates every member with io.ReadAll and copies its
// pixels out with Decode.
func referenceDecodePackZip(data []byte) ([]*Image, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("imagex: not a zip archive: %w", err)
	}
	names := make([]string, 0, len(zr.File))
	byName := make(map[string]*zip.File, len(zr.File))
	for _, f := range zr.File {
		if !strings.HasSuffix(f.Name, ".simg") {
			continue
		}
		names = append(names, f.Name)
		byName[f.Name] = f
	}
	sort.Strings(names)
	images := make([]*Image, 0, len(names))
	for _, name := range names {
		rc, err := byName[name].Open()
		if err != nil {
			return nil, err
		}
		payload, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		im, err := Decode(payload)
		if err != nil {
			return nil, fmt.Errorf("imagex: entry %s: %w", name, err)
		}
		images = append(images, im)
	}
	return images, nil
}

// checkPackRoundTrip encodes images as a pack and requires the pack to
// decode to the same images.
func checkPackRoundTrip(t *testing.T, images []*Image) {
	t.Helper()
	data, err := EncodePackZip(images)
	if err != nil {
		t.Fatalf("EncodePackZip: %v", err)
	}
	var d PackDecoder
	back, _, err := d.Decode(data)
	if err != nil {
		t.Fatalf("PackDecoder.Decode of a fresh pack: %v", err)
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
