package imagex

import (
	"bytes"
	"testing"

	"repro/internal/randx"
)

// randImage builds a w×h raster of uniform noise.
func randImage(rng *randx.Rand, w, h int) *Image {
	im := New(w, h, 0)
	for i := range im.Pix {
		im.Pix[i] = byte(rng.Intn(256))
	}
	return im
}

// --- reference kernels -------------------------------------------------
//
// The originals, verbatim, built on per-pixel At/Set. The row-slice
// rewrites must reproduce them bit-for-bit: hashes derived from these
// kernels feed the hashlist, the reverse index and the golden report.

func refResize(im *Image, w, h int) *Image {
	out := New(w, h, 0)
	for y := 0; y < h; y++ {
		sy0 := y * im.H / h
		sy1 := (y + 1) * im.H / h
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		for x := 0; x < w; x++ {
			sx0 := x * im.W / w
			sx1 := (x + 1) * im.W / w
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			sum, n := 0, 0
			for sy := sy0; sy < sy1 && sy < im.H; sy++ {
				for sx := sx0; sx < sx1 && sx < im.W; sx++ {
					sum += int(im.At(sx, sy))
					n++
				}
			}
			if n > 0 {
				out.Set(x, y, byte(sum/n))
			}
		}
	}
	return out
}

func refMirror(im *Image) *Image {
	out := New(im.W, im.H, 0)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			out.Set(im.W-1-x, y, im.At(x, y))
		}
	}
	return out
}

func refRecompress(im *Image, levels int) *Image {
	if levels < 2 {
		levels = 2
	}
	if levels > 256 {
		levels = 256
	}
	q := 256 / levels
	if q < 1 {
		q = 1
	}
	out := im.Clone()
	for i, p := range out.Pix {
		v := (int(p)/q)*q + q/2
		if v > 255 {
			v = 255
		}
		out.Pix[i] = byte(v)
	}
	return out
}

func refShade(im *Image, frac float64) *Image {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	out := im.Clone()
	y0 := int(float64(im.H) * (1 - frac))
	for y := y0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			out.Set(x, y, out.At(x, y)/3)
		}
	}
	return out
}

func refSkinFraction(im *Image) float64 {
	if len(im.Pix) == 0 {
		return 0
	}
	n := 0
	for _, p := range im.Pix {
		if p >= SkinLo && p <= SkinHi {
			n++
		}
	}
	return float64(n) / float64(len(im.Pix))
}

func refSkinCoherence(im *Image) float64 {
	if im.W == 0 || im.H == 0 {
		return 0
	}
	totalRun, runs := 0, 0
	for y := 0; y < im.H; y++ {
		run := 0
		for x := 0; x < im.W; x++ {
			if p := im.At(x, y); p >= SkinLo && p <= SkinHi {
				run++
			} else if run > 0 {
				totalRun += run
				runs++
				run = 0
			}
		}
		if run > 0 {
			totalRun += run
			runs++
		}
	}
	if runs == 0 {
		return 0
	}
	return float64(totalRun) / float64(runs) / float64(im.W)
}

// TestSkinStatsMatchesBranchyLoop pins the table-driven SkinStats to
// the branchy per-pixel references, bit for bit, on the rasters the
// study scores (models in every pose, screenshots, banners) and on
// random rasters with all-skin and no-skin rows and band-edge values.
func TestSkinStatsMatchesBranchyLoop(t *testing.T) {
	var ims []*Image
	for i := 0; i < 12; i++ {
		ims = append(ims, GenModel(uint64(i), i%5, Pose(i%3), 48))
	}
	ims = append(ims,
		GenScreenshot(9, []string{"TOTAL: $129.99", "PAYPAL BALANCE"}, 150, 60),
		GenErrorBanner(3, "IMAGE REMOVED", 160, 40),
		GenLandscape(5, 48, true))
	rng := randx.New(0x5c1)
	edges := []byte{0, SkinLo - 1, SkinLo, SkinHi, SkinHi + 1, 255}
	for _, sz := range kernelSizes {
		for trial := 0; trial < 4; trial++ {
			im := randImage(rng, sz[0], sz[1])
			for y := 0; y < im.H; y++ {
				row := im.Pix[y*im.W : (y+1)*im.W]
				switch rng.Intn(4) {
				case 0: // all skin
					for x := range row {
						row[x] = byte(SkinLo + rng.Intn(SkinHi-SkinLo+1))
					}
				case 1: // no skin
					for x := range row {
						row[x] = byte(rng.Intn(SkinLo))
					}
				case 2: // band edges only
					for x := range row {
						row[x] = edges[rng.Intn(len(edges))]
					}
				}
			}
			ims = append(ims, im)
		}
	}
	for i, im := range ims {
		want := Skin{Fraction: refSkinFraction(im), Coherence: refSkinCoherence(im)}
		if got := im.SkinStats(); got != want {
			t.Fatalf("image %d (%dx%d): SkinStats = %+v, reference %+v", i, im.W, im.H, got, want)
		}
	}
}

// kernelSizes spans the shapes the study generates (48x48 models,
// wide screenshots) plus degenerate and upsampling cases.
var kernelSizes = [][2]int{
	{48, 48}, {150, 60}, {9, 8}, {8, 8}, {7, 5}, {1, 1}, {64, 3}, {3, 64},
}

func TestKernelsMatchReference(t *testing.T) {
	rng := randx.New(0xbeef)
	for _, sz := range kernelSizes {
		for trial := 0; trial < 4; trial++ {
			im := randImage(rng, sz[0], sz[1])

			for _, target := range [][2]int{{8, 8}, {9, 8}, {16, 16}, {100, 40}, {1, 1}} {
				got := make([]byte, target[0]*target[1])
				im.resizePix(got, target[0], target[1])
				if !bytes.Equal(got, refResize(im, target[0], target[1]).Pix) {
					t.Fatalf("resizePix(%v→%v) diverged from reference", sz, target)
				}
			}
			if !bytes.Equal(im.Mirror().Pix, refMirror(im).Pix) {
				t.Fatalf("Mirror(%v) diverged from reference", sz)
			}
			for _, levels := range []int{2, 16, 24, 32, 255, 256, 0} {
				if !bytes.Equal(im.Recompress(levels).Pix, refRecompress(im, levels).Pix) {
					t.Fatalf("Recompress(%v, %d) diverged from reference", sz, levels)
				}
			}
			for _, frac := range []float64{0, 0.25, 0.5, 1, -1, 2} {
				if !bytes.Equal(im.Shade(frac).Pix, refShade(im, frac).Pix) {
					t.Fatalf("Shade(%v, %g) diverged from reference", sz, frac)
				}
			}
			sk := im.SkinStats()
			fraction, coherence := sk.Fraction, sk.Coherence
			if want := refSkinFraction(im); fraction != want {
				t.Fatalf("SkinStats(%v) fraction = %v, reference %v", sz, fraction, want)
			}
			if want := refSkinCoherence(im); coherence != want {
				t.Fatalf("SkinStats(%v) coherence = %v, reference %v", sz, coherence, want)
			}
		}
	}
}

// TestHash128FusedMatchesComponents pins the fused single-traversal
// composite hash to the component hashes (which are themselves pinned
// to the reference resize above) across shapes on both sides of the
// fused-path threshold.
func TestHash128FusedMatchesComponents(t *testing.T) {
	rng := randx.New(0xcafe)
	for _, sz := range kernelSizes {
		for trial := 0; trial < 8; trial++ {
			im := randImage(rng, sz[0], sz[1])
			got := Hash128Of(im)
			small8 := refResize(im, 8, 8)
			sum := 0
			for _, p := range small8.Pix {
				sum += int(p)
			}
			mean := byte(sum / 64)
			var a Hash
			for i, p := range small8.Pix {
				if p > mean {
					a |= 1 << uint(i)
				}
			}
			small9 := refResize(im, 9, 8)
			var d Hash
			bit := 0
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					if small9.At(x, y) > small9.At(x+1, y) {
						d |= 1 << uint(bit)
					}
					bit++
				}
			}
			if want := (Hash128{A: a, D: d}); got != want {
				t.Fatalf("Hash128Of(%v) = %v, reference %v", sz, got, want)
			}
		}
	}
}

// TestHashImageZeroAlloc pins the zero-alloc claim of the tentpole:
// hashing a study-shaped image must not touch the heap.
func TestHashImageZeroAlloc(t *testing.T) {
	im := GenModel(1, 0, PoseNude, 48)
	if avg := testing.AllocsPerRun(200, func() { Hash128Of(im) }); avg != 0 {
		t.Fatalf("Hash128Of allocates %.1f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { AHash(im) }); avg != 0 {
		t.Fatalf("AHash allocates %.1f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { DHash(im) }); avg != 0 {
		t.Fatalf("DHash allocates %.1f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { im.SkinStats() }); avg != 0 {
		t.Fatalf("SkinStats allocates %.1f per op, want 0", avg)
	}
}

// refFillRect and refFillEllipse are the per-pixel fills the row
// kernels replaced: one Intn draw per covered pixel, in raster order,
// written through the bounds-checked Set.
func refFillRect(im *Image, rng *randx.Rand, x0, y0, x1, y1 int, v byte, amp int) {
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			p := int(v)
			if amp > 0 {
				p += rng.Intn(2*amp+1) - amp
			}
			if p < 0 {
				p = 0
			}
			if p > 255 {
				p = 255
			}
			im.Set(x, y, byte(p))
		}
	}
}

func refFillEllipse(im *Image, rng *randx.Rand, cx, cy, rx, ry int, v byte, amp int) {
	if rx <= 0 || ry <= 0 {
		return
	}
	for y := cy - ry; y <= cy+ry; y++ {
		for x := cx - rx; x <= cx+rx; x++ {
			dx := float64(x-cx) / float64(rx)
			dy := float64(y-cy) / float64(ry)
			if dx*dx+dy*dy <= 1 {
				p := int(v)
				if amp > 0 {
					p += rng.Intn(2*amp+1) - amp
				}
				if p < 0 {
					p = 0
				}
				if p > 255 {
					p = 255
				}
				im.Set(x, y, byte(p))
			}
		}
	}
}

// TestFillsMatchReference holds the row fills to the per-pixel
// references: same pixels, and the rng left at the same draw, over
// random shapes on, across and wholly off the image, with no noise,
// unit noise, noise that clamps, and a bound past 32 bits.
func TestFillsMatchReference(t *testing.T) {
	shapes := randx.New(0xf111)
	for _, sz := range kernelSizes {
		for trial := 0; trial < 60; trial++ {
			w, h := sz[0], sz[1]
			amp := []int{0, 1, 8, 200, 1 << 20, 1 << 31, -3}[trial%7]
			v := byte(shapes.Intn(256))
			// Corners and centres range a shape's size beyond every edge.
			x0, y0 := shapes.Intn(3*w+8)-w-4, shapes.Intn(3*h+8)-h-4
			x1, y1 := x0+shapes.Intn(w+6)-1, y0+shapes.Intn(h+6)-1
			rx, ry := shapes.Intn(w+3)-1, shapes.Intn(h+3)-1
			seed := shapes.Uint64()

			base := randImage(shapes, w, h)
			got, want := base.Clone(), base.Clone()
			gotRng, wantRng := randx.New(seed), randx.New(seed)
			got.FillRect(gotRng, x0, y0, x1, y1, v, amp)
			refFillRect(want, wantRng, x0, y0, x1, y1, v, amp)
			if !bytes.Equal(got.Pix, want.Pix) || gotRng.Uint64() != wantRng.Uint64() {
				t.Fatalf("FillRect(%v, [%d,%d)x[%d,%d), v=%d, amp=%d) diverged from reference",
					sz, x0, x1, y0, y1, v, amp)
			}
			got.FillEllipse(gotRng, x0, y0, rx, ry, v, amp)
			refFillEllipse(want, wantRng, x0, y0, rx, ry, v, amp)
			if !bytes.Equal(got.Pix, want.Pix) || gotRng.Uint64() != wantRng.Uint64() {
				t.Fatalf("FillEllipse(%v, c=(%d,%d), r=(%d,%d), v=%d, amp=%d) diverged from reference",
					sz, x0, y0, rx, ry, v, amp)
			}
		}
	}
}
