package ocr

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/imagex"
	"repro/internal/randx"
)

func TestRecognizeSingleWord(t *testing.T) {
	im := imagex.New(80, 12, 240)
	im.DrawText(2, 2, 1, "HELLO")
	res := Recognize(im)
	if res.Words != 1 {
		t.Fatalf("Words = %d (text %q)", res.Words, res.Text)
	}
	if res.Text != "HELLO" {
		t.Fatalf("Text = %q", res.Text)
	}
}

func TestRecognizeSentence(t *testing.T) {
	im := imagex.New(200, 14, 235)
	im.DrawText(2, 3, 1, "PAYPAL BALANCE $120.50")
	res := Recognize(im)
	if res.Words != 3 {
		t.Fatalf("Words = %d (text %q)", res.Words, res.Text)
	}
	if !strings.Contains(res.Text, "PAYPAL") || !strings.Contains(res.Text, "$120.50") {
		t.Fatalf("Text = %q", res.Text)
	}
}

func TestRecognizeMultiLine(t *testing.T) {
	im := imagex.GenScreenshot(1, []string{
		"AMAZON GIFT CARD",
		"AMOUNT: $50.00",
		"STATUS: PAID",
	}, 160, 40)
	res := Recognize(im)
	if res.Words != 7 {
		t.Fatalf("Words = %d (text %q)", res.Words, res.Text)
	}
	lines := strings.Split(res.Text, "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d (text %q)", len(lines), res.Text)
	}
}

func TestModelPhotoScoresZero(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		im := imagex.GenModel(seed, 0, imagex.PoseNude, 48)
		if w := WordCount(im); w > 1 {
			t.Fatalf("model photo seed %d recognised %d words", seed, w)
		}
	}
}

func TestDarkImageScoresZero(t *testing.T) {
	// A dark image binarises to all-ink, where no template can match
	// (every template has at least one '.' cell).
	im := imagex.New(60, 30, 40)
	if w := WordCount(im); w != 0 {
		t.Fatalf("solid dark image recognised %d words", w)
	}
}

func TestNoiseScoresZero(t *testing.T) {
	rng := randx.New(77)
	im := imagex.New(64, 64, 0)
	for i := range im.Pix {
		im.Pix[i] = byte(rng.Uint32())
	}
	if w := WordCount(im); w > 2 {
		t.Fatalf("random noise recognised %d words", w)
	}
}

func TestLowercaseInputRendersAsUppercase(t *testing.T) {
	im := imagex.New(100, 12, 240)
	im.DrawText(2, 2, 1, "proof")
	res := Recognize(im)
	if res.Text != "PROOF" {
		t.Fatalf("Text = %q", res.Text)
	}
}

func TestAllGlyphsRoundtrip(t *testing.T) {
	runes := imagex.GlyphRunes()
	for _, r := range runes {
		im := imagex.New(20, 12, 245)
		im.DrawText(4, 3, 1, string(r))
		res := Recognize(im)
		if len(res.Glyphs) != 1 {
			t.Errorf("glyph %q: recognised %d glyphs (%q)", r, len(res.Glyphs), res.Text)
			continue
		}
		got := res.Glyphs[0].R
		want := r
		if want >= 'a' && want <= 'z' {
			want = want - 'a' + 'A'
		}
		if got != want {
			t.Errorf("glyph %q recognised as %q", r, got)
		}
	}
}

func TestThumbnailGridTextRich(t *testing.T) {
	im := imagex.GenThumbnailGrid(5, 99, 160, 110)
	if w := WordCount(im); w <= 20 {
		t.Fatalf("directory screenshot recognised only %d words; Algorithm 1 needs > 20", w)
	}
}

func TestErrorBannerHasWords(t *testing.T) {
	im := imagex.GenErrorBanner(2, "IMAGE REMOVED FOR TOS VIOLATION", 220, 30)
	if w := WordCount(im); w < 4 {
		t.Fatalf("error banner recognised %d words", w)
	}
}

func TestEmptyImage(t *testing.T) {
	im := imagex.New(30, 10, 255)
	res := Recognize(im)
	if res.Words != 0 || res.Text != "" || len(res.Glyphs) != 0 {
		t.Fatalf("blank image result: %+v", res)
	}
}

func TestTooSmallImage(t *testing.T) {
	im := imagex.New(3, 3, 0)
	if w := WordCount(im); w != 0 {
		t.Fatalf("3x3 image recognised %d words", w)
	}
}

func BenchmarkRecognizeScreenshot(b *testing.B) {
	im := imagex.GenScreenshot(1, []string{
		"PAYPAL DASHBOARD",
		"BALANCE: $843.22",
		"RECENT: +$50.00 +$25.00",
		"FROM: THREE CUSTOMERS",
	}, 180, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Recognize(im)
	}
}

func BenchmarkRecognizeModelPhoto(b *testing.B) {
	im := imagex.GenModel(1, 0, imagex.PoseNude, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Recognize(im)
	}
}

func TestRecognizeZeroDimensionImage(t *testing.T) {
	// A degenerate raster must return an empty result, not panic in
	// the pooled binarise path.
	res := Recognize(&imagex.Image{})
	if res.Words != 0 || len(res.Glyphs) != 0 || res.Text != "" {
		t.Fatalf("zero-dim Recognize = %+v, want empty", res)
	}
}

// refTemplate is a glyph as the byte matcher held it: its ink mask
// (1 = ink, like the binarised raster) and a quick-reject probe on its
// first ink cell.
type refTemplate struct {
	r              rune
	mask           [imagex.GlyphH][imagex.GlyphW]byte
	probeX, probeY int
	inkArea        int
}

var refTemplates = buildRefTemplates()

func buildRefTemplates() []refTemplate {
	runes := imagex.GlyphRunes()
	sort.Slice(runes, func(i, j int) bool { return runes[i] < runes[j] })
	out := make([]refTemplate, 0, len(runes))
	for _, r := range runes {
		g, _ := imagex.Glyph(r)
		t := refTemplate{r: r, probeX: -1}
		for y := 0; y < imagex.GlyphH; y++ {
			for x := 0; x < imagex.GlyphW; x++ {
				if g[y][x] == '#' {
					t.mask[y][x] = 1
					t.inkArea++
					if t.probeX < 0 {
						t.probeX, t.probeY = x, y
					}
				}
			}
		}
		if t.inkArea > 0 {
			out = append(out, t)
		}
	}
	return out
}

// referenceRecognize is the byte matcher Recognize used before row
// codes: binarise, skip windows whose 7 rows hold no ink, and at each
// position try every template in rune order with a compare of all 35
// cells. The row-code kernel must return the same Result on every
// image.
func referenceRecognize(im *imagex.Image) Result {
	if im.W <= 0 || im.H <= 0 {
		return Result{}
	}
	ink := make([]byte, len(im.Pix))
	binarise(ink, im)
	rowHasInk := make([]bool, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			if ink[y*im.W+x] != 0 {
				rowHasInk[y] = true
				break
			}
		}
	}
	var cands []candidate
	for y := 0; y+imagex.GlyphH <= im.H; y++ {
		windowHasInk := false
		for dy := 0; dy < imagex.GlyphH; dy++ {
			if rowHasInk[y+dy] {
				windowHasInk = true
				break
			}
		}
		if !windowHasInk {
			continue
		}
		for x := 0; x+imagex.GlyphW <= im.W; {
			if g, area, ok := referenceMatchAt(ink, im.W, x, y); ok {
				cands = append(cands, candidate{Glyph{R: g, X: x, Y: y}, area})
				x += imagex.GlyphW + 1
			} else {
				x++
			}
		}
	}
	glyphs := referenceResolve(cands)
	words, text := group(glyphs)
	return Result{Glyphs: glyphs, Words: words, Text: text}
}

// referenceResolve is the quadratic overlap resolution resolve
// replaced: sort every candidate by (area desc, Y, X), test each
// against every glyph accepted so far, then sort the accepted glyphs
// by (Y, X). It sorts cands in place.
func referenceResolve(cands []candidate) []Glyph {
	slices.SortFunc(cands, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(b.area, a.area), cmp.Compare(a.g.Y, b.g.Y), cmp.Compare(a.g.X, b.g.X))
	})
	var accepted []Glyph
	for _, c := range cands {
		overlap := false
		for _, a := range accepted {
			if abs(c.g.Y-a.Y) < imagex.GlyphH && abs(c.g.X-a.X) < imagex.GlyphW {
				overlap = true
				break
			}
		}
		if !overlap {
			accepted = append(accepted, c.g)
		}
	}
	slices.SortFunc(accepted, func(a, b Glyph) int {
		return cmp.Or(cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
	})
	return accepted
}

// TestResolveMatchesReference compares resolve with the quadratic
// reference on random candidate sets in the (Y, X) order Recognize
// emits them: dense sets where most candidates overlap, sparse ones
// where few do, areas drawn from the font's whole range so area ties
// are common, and origins on every cell boundary of small and odd
// image sizes.
func TestResolveMatchesReference(t *testing.T) {
	rng := randx.New(0x0c5e)
	for trial := 0; trial < 2000; trial++ {
		w := imagex.GlyphW + rng.Intn(60)
		h := imagex.GlyphH + rng.Intn(40)
		density := []float64{0.02, 0.1, 0.4, 0.9}[trial%4]
		var cands []candidate
		for y := 0; y+imagex.GlyphH <= h; y++ {
			for x := 0; x+imagex.GlyphW <= w; x++ {
				if rng.Bool(density) {
					area := 1 + rng.Intn(imagex.GlyphW*imagex.GlyphH)
					if rng.Bool(0.5) {
						area = 9 + rng.Intn(4) // a narrow band: many ties
					}
					cands = append(cands, candidate{Glyph{R: rune('A' + rng.Intn(26)), X: x, Y: y}, area})
				}
			}
		}
		want := referenceResolve(slices.Clone(cands))
		if got := resolve(cands, w, h); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%dx%d, %d candidates): resolve %v, reference %v", trial, w, h, len(cands), got, want)
		}
	}
}

// referenceMatchAt returns the first template in rune order whose
// every '#' cell is ink and every '.' cell is not at (x, y).
func referenceMatchAt(ink []byte, w, x, y int) (rune, int, bool) {
	for i := range refTemplates {
		t := &refTemplates[i]
		if ink[(y+t.probeY)*w+x+t.probeX] == 0 {
			continue
		}
		ok := true
		for dy := 0; dy < imagex.GlyphH && ok; dy++ {
			row := (y + dy) * w
			for dx := 0; dx < imagex.GlyphW; dx++ {
				if t.mask[dy][dx] != ink[row+x+dx] {
					ok = false
					break
				}
			}
		}
		if ok {
			return t.r, t.inkArea, true
		}
	}
	return 0, 0, false
}

// checkSame fails the test when Recognize and the reference matcher
// disagree on im.
func checkSame(t *testing.T, what string, im *imagex.Image) {
	t.Helper()
	got, want := Recognize(im), referenceRecognize(im)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Recognize = %+v, reference = %+v", what, got, want)
	}
}

// stamp writes a template's exact cells at (x, y): ink on its '#'
// cells and paper on its '.' cells, whatever the canvas held.
func stamp(im *imagex.Image, tm *refTemplate, x, y int) {
	for dy := 0; dy < imagex.GlyphH; dy++ {
		for dx := 0; dx < imagex.GlyphW; dx++ {
			v := byte(245)
			if tm.mask[dy][dx] == 1 {
				v = imagex.Ink
			}
			im.Set(x+dx, y+dy, v)
		}
	}
}

// noiseImage returns a w×h raster of per-pixel random bytes.
func noiseImage(seed uint64, w, h int) *imagex.Image {
	im := imagex.New(w, h, 0)
	rng := randx.New(seed)
	for i := range im.Pix {
		im.Pix[i] = byte(rng.Uint32())
	}
	return im
}

// canvases returns the three backgrounds a stamped template is checked
// on: blank paper, solid ink and random noise.
func canvases(seed uint64, w, h int) map[string]*imagex.Image {
	return map[string]*imagex.Image{
		"blank": imagex.New(w, h, 245),
		"inked": imagex.New(w, h, imagex.Ink),
		"noise": noiseImage(seed, w, h),
	}
}

func TestTemplatesFitRowSets(t *testing.T) {
	if len(templates) != len(refTemplates) || len(templates) > 64 {
		t.Fatalf("%d templates (reference %d); row sets hold at most 64", len(templates), len(refTemplates))
	}
	for i := range templates {
		if templates[i].r != refTemplates[i].r || templates[i].inkArea != refTemplates[i].inkArea {
			t.Fatalf("template %d = %+v, reference %q area %d", i, templates[i], refTemplates[i].r, refTemplates[i].inkArea)
		}
		// A template's own rows select it and nothing else: no two
		// glyphs share all 7 rows, so the lowest-bit tie-break never
		// has to choose.
		set := ^uint64(0)
		for dy, row := range refTemplates[i].mask {
			var code byte
			for dx, v := range row {
				code |= v << dx
			}
			set &= rowSets[dy][code]
		}
		if set != 1<<i {
			t.Fatalf("template %q selects set %#x, want only bit %d", templates[i].r, set, i)
		}
	}
}

func TestRowCodeMatchesReferenceAtEveryOffset(t *testing.T) {
	const w, h = 17, 21
	for i := range refTemplates {
		tm := &refTemplates[i]
		for oy := 0; oy <= 7; oy++ {
			for ox := 0; ox <= 5; ox++ {
				for name, im := range canvases(uint64(i*64+oy*8+ox), w, h) {
					stamp(im, tm, ox, oy)
					checkSame(t, fmt.Sprintf("%q at (%d,%d) on %s", tm.r, ox, oy, name), im)
					if name == "blank" {
						if res := Recognize(im); len(res.Glyphs) != 1 || res.Glyphs[0] != (Glyph{R: tm.r, X: ox, Y: oy}) {
							t.Fatalf("%q at (%d,%d) on blank: recognised %+v", tm.r, ox, oy, res.Glyphs)
						}
					}
				}
			}
		}
	}
}

func TestRowCodeRejectsNearMissesLikeReference(t *testing.T) {
	const w, h = 13, 15
	for i := range refTemplates {
		tm := &refTemplates[i]
		for cell := 0; cell < imagex.GlyphW*imagex.GlyphH; cell++ {
			cx, cy := 3+cell%imagex.GlyphW, 4+cell/imagex.GlyphW
			for name, im := range canvases(uint64(i*64+cell), w, h) {
				stamp(im, tm, 3, 4)
				if im.At(cx, cy) < inkThreshold {
					im.Set(cx, cy, 245)
				} else {
					im.Set(cx, cy, imagex.Ink)
				}
				checkSame(t, fmt.Sprintf("%q with cell %d flipped on %s", tm.r, cell, name), im)
			}
		}
	}
}

func TestRowCodeMatchesReferenceOnScenes(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		checkSame(t, fmt.Sprintf("screenshot %d", seed), imagex.GenScreenshot(seed, []string{
			"PAYPAL DASHBOARD",
			fmt.Sprintf("TOTAL: %d.%02d USD", seed*37, seed%100),
			"TX: 41.90 ON 03/14/2016",
		}, 120+int(seed%7)*9, 30+int(seed%5)*3))
		checkSame(t, fmt.Sprintf("thumbnail grid %d", seed), imagex.GenThumbnailGrid(seed, seed+99, 160, 110))
		for _, pose := range []imagex.Pose{imagex.PoseDressed, imagex.PosePartial, imagex.PoseNude} {
			checkSame(t, fmt.Sprintf("model %d pose %d", seed, pose), imagex.GenModel(seed, int(seed%3), pose, 48))
		}
		checkSame(t, fmt.Sprintf("noise %d", seed), noiseImage(seed, 40+int(seed), 30+int(seed%9)))
	}
}

// allocScreenshot is the fixed 180x48 screenshot the allocation tests
// recognise.
func allocScreenshot() *imagex.Image {
	return imagex.GenScreenshot(1, []string{
		"PAYPAL DASHBOARD",
		"BALANCE: $843.22",
		"RECENT: +$50.00 +$25.00",
		"FROM: THREE CUSTOMERS",
	}, 180, 48)
}

// allocsFromEmptyPool runs f under testing.AllocsPerRun starting from
// an empty mask pool (two GCs clear it and its victim cache), so
// AllocsPerRun's warm-up call allocates the masks and every timed
// call reuses them. It runs at the GOMAXPROCS=1 that AllocsPerRun
// runs at, so all calls share one P's pool.
func allocsFromEmptyPool(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	return testing.AllocsPerRun(100, f)
}

// TestRecognizeAllocs pins the kernel's allocation count on a fixed
// screenshot. The byte matcher made 29 allocations here; the row-code
// kernel keeps its ink flags in the pooled mask, which drops the
// per-image rowHasInk slice, and sorting candidates with
// slices.SortFunc instead of sort.Slice drops the reflect swappers.
// The mask pool moving into ocr left 21; the linear resolve, which
// sizes its accepted glyphs once instead of appending them, leaves 16.
func TestRecognizeAllocs(t *testing.T) {
	im := allocScreenshot()
	if avg := allocsFromEmptyPool(func() { Recognize(im) }); avg > 16 {
		t.Fatalf("Recognize made %.1f allocations per call, want at most 16", avg)
	}
}

// TestMaskPoolKeepsGrownBuffer alternates a small and a large raster.
// The small one goes first, so the pooled mask is too small for every
// large call until it grows; a pool that grows the buffer and keeps
// it allocates no more per pair than the two sizes do on their own. A
// pool that drops the grown buffer, or puts the small one back,
// allocates a large mask on every large call.
func TestMaskPoolKeepsGrownBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops values at random")
	}
	small := imagex.GenModel(1, 0, imagex.PoseNude, 48)
	large := allocScreenshot()
	if small.W*small.H >= large.W*large.H {
		t.Fatalf("small raster %dx%d is not smaller than large %dx%d", small.W, small.H, large.W, large.H)
	}
	alone := allocsFromEmptyPool(func() { Recognize(small) }) + allocsFromEmptyPool(func() { Recognize(large) })
	pair := allocsFromEmptyPool(func() {
		Recognize(small)
		Recognize(large)
	})
	if pair != alone {
		t.Fatalf("alternating sizes made %.1f allocations per pair, the sizes alone %.1f", pair, alone)
	}
}
