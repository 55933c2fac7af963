package imagex

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func TestNewAndAccessors(t *testing.T) {
	im := New(4, 3, 100)
	if im.W != 4 || im.H != 3 || len(im.Pix) != 12 {
		t.Fatalf("New shape wrong: %+v", im)
	}
	if im.At(0, 0) != 100 || im.At(3, 2) != 100 {
		t.Fatal("base fill wrong")
	}
	if im.At(-1, 0) != 0 || im.At(4, 0) != 0 {
		t.Fatal("out-of-bounds At should return 0")
	}
	im.Set(1, 1, 7)
	if im.At(1, 1) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	im.Set(99, 99, 1) // must not panic
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,0) did not panic")
		}
	}()
	New(0, 0, 0)
}

func TestCloneIndependent(t *testing.T) {
	a := New(2, 2, 10)
	b := a.Clone()
	b.Set(0, 0, 200)
	if a.At(0, 0) != 10 {
		t.Fatal("Clone shares pixel storage")
	}
}

func TestSkinFraction(t *testing.T) {
	im := New(10, 10, 0)
	if im.SkinFraction() != 0 {
		t.Fatal("black image has skin")
	}
	im.FillRect(randx.New(1), 0, 0, 10, 5, (SkinLo+SkinHi)/2, 0)
	got := im.SkinFraction()
	if got != 0.5 {
		t.Fatalf("SkinFraction = %v want 0.5", got)
	}
}

func TestSkinCoherenceContiguousVsScattered(t *testing.T) {
	skin := byte((SkinLo + SkinHi) / 2)
	contiguous := New(20, 20, 0)
	contiguous.FillRect(randx.New(1), 0, 0, 20, 10, skin, 0)
	scattered := New(20, 20, 0)
	for i := 0; i < 200; i += 2 {
		scattered.Pix[i] = skin
	}
	if contiguous.SkinCoherence() <= scattered.SkinCoherence() {
		t.Fatalf("coherence: contiguous %.3f <= scattered %.3f",
			contiguous.SkinCoherence(), scattered.SkinCoherence())
	}
}

func TestDrawTextAndWidth(t *testing.T) {
	im := New(60, 12, 255)
	end := im.DrawText(0, 0, 1, "HI")
	if end != TextWidth("HI", 1) {
		t.Fatalf("cursor %d want %d", end, TextWidth("HI", 1))
	}
	// Ink must appear where glyphs were drawn.
	found := false
	for _, p := range im.Pix {
		if p == Ink {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("DrawText drew nothing")
	}
}

func TestGlyphCoverage(t *testing.T) {
	for _, r := range "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789$.,:-/()@#+=" {
		if _, ok := Glyph(r); !ok {
			t.Errorf("font missing %q", r)
		}
	}
	if _, ok := Glyph('a'); !ok {
		t.Error("lowercase not mapped to uppercase")
	}
	if _, ok := Glyph('~'); ok {
		t.Error("unexpected glyph for ~")
	}
	for _, r := range GlyphRunes() {
		g, ok := Glyph(r)
		if !ok {
			t.Fatalf("GlyphRunes returned unknown rune %q", r)
		}
		for _, row := range g {
			if len(row) != GlyphW {
				t.Fatalf("glyph %q row width %d", r, len(row))
			}
		}
	}
}

func TestMirrorInvolution(t *testing.T) {
	im := GenModel(42, 0, PoseNude, 32)
	back := im.Mirror().Mirror()
	if !bytes.Equal(im.Pix, back.Pix) {
		t.Fatal("Mirror twice != identity")
	}
}

func TestMirrorChangesHash(t *testing.T) {
	im := GenModel(42, 0, PoseNude, 48)
	d := DHash(im).Distance(DHash(im.Mirror()))
	if d < 10 {
		t.Fatalf("mirror changed only %d hash bits; should defeat matching", d)
	}
}

func TestRecompressKeepsHashClose(t *testing.T) {
	im := GenModel(7, 1, PosePartial, 48)
	re := im.Recompress(32)
	d := DHash(im).Distance(DHash(re))
	if d > 8 {
		t.Fatalf("recompression moved hash by %d bits; should be robust", d)
	}
}

func TestWatermarkSmallHashShift(t *testing.T) {
	im := GenModel(9, 2, PoseNude, 48)
	wm := im.Watermark("HF.NET")
	d := DHash(im).Distance(DHash(wm))
	if d > 16 {
		t.Fatalf("watermark moved hash by %d bits", d)
	}
	if bytes.Equal(im.Pix, wm.Pix) {
		t.Fatal("watermark drew nothing")
	}
}

func TestShadeBounds(t *testing.T) {
	im := GenModel(5, 0, PoseNude, 32)
	_ = im.Shade(-1) // clamps
	s := im.Shade(0.5)
	if s.At(0, im.H-1) >= im.At(0, im.H-1) && im.At(0, im.H-1) > 2 {
		t.Fatal("Shade did not darken bottom")
	}
}

func TestResize(t *testing.T) {
	im := New(10, 10, 0)
	im.FillRect(randx.New(1), 0, 0, 10, 5, 200, 0)
	small := im.Resize(2, 2)
	if small.W != 2 || small.H != 2 {
		t.Fatal("resize shape wrong")
	}
	if small.At(0, 0) != 200 || small.At(0, 1) != 0 {
		t.Fatalf("resize values: top %d bottom %d", small.At(0, 0), small.At(0, 1))
	}
}

func TestDHashDeterministic(t *testing.T) {
	a := GenModel(3, 0, PoseNude, 48)
	b := GenModel(3, 0, PoseNude, 48)
	if DHash(a) != DHash(b) {
		t.Fatal("identical scenes hash differently")
	}
	c := GenModel(4, 0, PoseNude, 48)
	if DHash(a) == DHash(c) {
		t.Fatal("different models collide (possible but indicates degenerate hashing)")
	}
}

func TestAHashDifferentFromDHash(t *testing.T) {
	im := GenModel(11, 0, PoseDressed, 48)
	if AHash(im) == DHash(im) {
		t.Log("aHash == dHash by coincidence — acceptable but unusual")
	}
	if AHash(im) != AHash(im.Clone()) {
		t.Fatal("AHash not deterministic")
	}
}

func TestHashString(t *testing.T) {
	if got := Hash(0xdead).String(); got != "000000000000dead" {
		t.Fatalf("Hash.String = %q", got)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	im := GenModel(21, 3, PosePartial, 40)
	back, err := Decode(im.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.W != im.W || back.H != im.H || !bytes.Equal(back.Pix, im.Pix) {
		t.Fatal("SIMG roundtrip corrupted image")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("hello"),
		[]byte("SIMG"),
		append([]byte("SIMG\x02"), 0, 1, 0, 1, 0), // bad version
		append([]byte("SIMG\x01"), 0, 2, 0, 2, 0), // truncated pixels
		append([]byte("SIMG\x01"), 0, 0, 0, 1),    // zero width
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// TestPackZipRoundtrip checks the pack layout (entries 0001.simg,
// 0002.simg, ... in order, each deflated) and that every image comes
// back pixel for pixel.
func TestPackZipRoundtrip(t *testing.T) {
	imgs := []*Image{
		GenModel(1, 0, PoseDressed, 32),
		GenModel(1, 1, PoseNude, 32),
		GenScreenshot(9, []string{"PAYPAL BALANCE", "$120.50"}, 80, 40),
	}
	data, err := EncodePackZip(imgs)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(zr.File) != len(imgs) {
		t.Fatalf("pack has %d entries, want %d", len(zr.File), len(imgs))
	}
	for i, f := range zr.File {
		if want := fmt.Sprintf("%04d.simg", i+1); f.Name != want {
			t.Fatalf("entry %d is named %q, want %q", i, f.Name, want)
		}
		if f.Method != zip.Deflate {
			t.Fatalf("entry %s has method %d, want Deflate", f.Name, f.Method)
		}
	}
	back, err := DecodePackZip(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(imgs) {
		t.Fatalf("got %d images", len(back))
	}
	for i := range imgs {
		if back[i].W != imgs[i].W || back[i].H != imgs[i].H || !bytes.Equal(back[i].Pix, imgs[i].Pix) {
			t.Fatalf("image %d corrupted in zip roundtrip", i)
		}
	}
}

// referencePackZip is the pack encoder before entries were deflated
// separately: one zip.Writer.Create per image through a Huffman-only
// compressor. WritePackZip must reproduce its bytes exactly.
func referencePackZip(t *testing.T, images []*Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	zw.RegisterCompressor(zip.Deflate, func(out io.Writer) (io.WriteCloser, error) {
		return flate.NewWriter(out, flate.HuffmanOnly)
	})
	for i, im := range images {
		w, err := zw.Create(fmt.Sprintf("%04d.simg", i+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(im.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPackEntryReuseMatchesCreate pins the deflate-once pack encoder:
// a pack whose repeated members reuse one deflated entry, and a pack
// deflated member by member, are the bytes zip.Writer.Create writes.
// The members cover every actor transform synth applies (keep,
// recompress to 32 and 24 levels, watermark, mirror), a screenshot of
// another shape, and a raster larger than one 64 KiB deflate block.
func TestPackEntryReuseMatchesCreate(t *testing.T) {
	base := GenModel(5, 2, PoseNude, 48)
	transforms := []func(*Image) *Image{
		func(im *Image) *Image { return im },
		func(im *Image) *Image { return im.Recompress(32) },
		func(im *Image) *Image { return im.Recompress(24) },
		func(im *Image) *Image { return im.Watermark("PACK") },
		func(im *Image) *Image { return im.Mirror() },
		func(*Image) *Image { return GenScreenshot(3, []string{"BTC 0.01"}, 70, 30) },
		func(*Image) *Image { return GenModel(6, 0, PoseDressed, 300) },
	}
	distinct := make([]*Image, len(transforms))
	memo := make([]PackEntry, len(transforms))
	for i, tf := range transforms {
		distinct[i] = tf(base)
		memo[i] = DeflatePackEntry(distinct[i])
	}
	// Every member twice, in an interleaved order, as models recur
	// across a world's packs.
	order := []int{0, 1, 2, 3, 4, 5, 6, 4, 0, 3, 6, 1, 5, 2}
	images := make([]*Image, len(order))
	reused := make([]PackEntry, len(order))
	for i, k := range order {
		images[i] = distinct[k]
		reused[i] = memo[k]
	}
	want := referencePackZip(t, images)
	got, err := WritePackZip(reused)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pack from reused entries differs from zip.Writer.Create's (%d vs %d bytes)", len(got), len(want))
	}
	if cap(got) != len(got) {
		t.Fatalf("archive buffer sized %d for %d bytes", cap(got), len(got))
	}
	fresh, err := EncodePackZip(images)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, want) {
		t.Fatal("EncodePackZip differs from zip.Writer.Create's archive")
	}
}

func TestDecodePackZipRejectsGarbage(t *testing.T) {
	if _, err := DecodePackZip([]byte("not a zip")); err == nil {
		t.Fatal("garbage zip accepted")
	}
}

func TestGenModelPoseSkinOrdering(t *testing.T) {
	// Averaged over shoots, nude > partial > dressed in skin fraction.
	avg := func(pose Pose) float64 {
		sum := 0.0
		const n = 40
		for i := 0; i < n; i++ {
			sum += GenModel(uint64(1000+i), 0, pose, 48).SkinFraction()
		}
		return sum / n
	}
	nude, partial, dressed := avg(PoseNude), avg(PosePartial), avg(PoseDressed)
	if !(nude > partial && partial > dressed) {
		t.Fatalf("skin fractions not ordered: nude %.3f partial %.3f dressed %.3f",
			nude, partial, dressed)
	}
	if nude < 0.3 {
		t.Fatalf("nude skin fraction %.3f too low for NSFW banding", nude)
	}
}

func TestGenScreenshotLowSkin(t *testing.T) {
	im := GenScreenshot(5, []string{"PAYPAL: $500.00 RECEIVED", "FROM: CUSTOMER"}, 120, 60)
	if f := im.SkinFraction(); f > 0.02 {
		t.Fatalf("screenshot skin fraction %.4f too high", f)
	}
}

func TestGenLandscapeSkinLike(t *testing.T) {
	plain := GenLandscape(8, 48, false)
	sandy := GenLandscape(8, 48, true)
	if sandy.SkinFraction() <= plain.SkinFraction() {
		t.Fatalf("skinLike landscape %.3f <= plain %.3f",
			sandy.SkinFraction(), plain.SkinFraction())
	}
}

func TestGenErrorBannerHasText(t *testing.T) {
	im := GenErrorBanner(1, "IMAGE REMOVED", 120, 40)
	found := false
	for _, p := range im.Pix {
		if p == Ink {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("error banner has no text ink")
	}
}

func TestGenThumbnailGridMixesSignals(t *testing.T) {
	im := GenThumbnailGrid(3, 77, 100, 60)
	if im.SkinFraction() == 0 {
		t.Fatal("thumbnail grid has no skin pixels")
	}
	ink := false
	for _, p := range im.Pix {
		if p == Ink {
			ink = true
			break
		}
	}
	if !ink {
		t.Fatal("thumbnail grid has no text")
	}
}

func TestPoseString(t *testing.T) {
	if PoseNude.String() != "nude" || PoseDressed.String() != "dressed" ||
		PosePartial.String() != "partial" || Pose(99).String() != "unknown" {
		t.Fatal("Pose.String wrong")
	}
}

// Property: SIMG roundtrip is lossless for arbitrary small images.
func TestQuickSIMGRoundtrip(t *testing.T) {
	f := func(seed uint64, w8, h8 uint8) bool {
		w := int(w8%32) + 1
		h := int(h8%32) + 1
		rng := randx.New(seed)
		im := New(w, h, 0)
		for i := range im.Pix {
			im.Pix[i] = byte(rng.Uint32())
		}
		back, err := Decode(im.Encode())
		return err == nil && back.W == w && back.H == h && bytes.Equal(back.Pix, im.Pix)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hash distance is a metric-ish: symmetric, zero on self.
func TestQuickHashDistance(t *testing.T) {
	f := func(a, b uint64) bool {
		ha, hb := Hash(a), Hash(b)
		return ha.Distance(ha) == 0 &&
			ha.Distance(hb) == hb.Distance(ha) &&
			ha.Distance(hb) <= 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = GenModel(uint64(i), 0, PoseNude, 48)
	}
}

func BenchmarkDHash(b *testing.B) {
	im := GenModel(1, 0, PoseNude, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DHash(im)
	}
}

func BenchmarkPackZip(b *testing.B) {
	imgs := make([]*Image, 20)
	for i := range imgs {
		imgs[i] = GenModel(uint64(i), i, PoseNude, 48)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := EncodePackZip(imgs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodePackZip(data); err != nil {
			b.Fatal(err)
		}
	}
}
