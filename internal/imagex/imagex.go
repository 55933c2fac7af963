// Package imagex is the raster-image substrate of the study. The paper
// downloads ~117k real images; for ethical and data-availability
// reasons this reproduction cannot, so imagex synthesises images that
// carry the same measurable signals end-to-end:
//
//   - "model" photos have configurable skin-pixel fractions, so the
//     NSFW scorer (internal/nsfw) measures something real;
//   - "screenshot" images carry glyph-rendered text, so the OCR engine
//     (internal/ocr) genuinely recognises characters;
//   - every image has a perceptual difference-hash, so duplicate
//     detection, the PhotoDNA hashlist and the reverse image search
//     operate on pixel-derived fingerprints with realistic robustness
//     (recompression survives; mirroring evades — as the paper notes
//     actors exploit).
//
// Images are 8-bit grayscale rasters serialised in a tiny container
// format (SIMG) and bundled into real zip archives for "packs".
package imagex

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"repro/internal/randx"
)

// Skin-band constants: pixels whose value falls inside the band count
// as "skin" for the NSFW scorer. Scene generators place body pixels in
// the band and backgrounds outside it (except for deliberately
// ambiguous scenes such as sand or wood textures).
const (
	SkinLo = 140
	SkinHi = 180
)

// Ink is the pixel value text glyphs are drawn with.
const Ink = 20

// Image is an 8-bit grayscale raster.
type Image struct {
	W, H int
	Pix  []byte // row-major, len == W*H
}

// New returns an image of the given size filled with the base value.
func New(w, h int, base byte) *Image {
	if w <= 0 || h <= 0 {
		panic("imagex: non-positive dimensions")
	}
	pix := make([]byte, w*h)
	for i := range pix {
		pix[i] = base
	}
	return &Image{W: w, H: h, Pix: pix}
}

// At returns the pixel at (x, y); out-of-bounds reads return 0.
func (im *Image) At(x, y int) byte {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return 0
	}
	return im.Pix[y*im.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v byte) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	pix := make([]byte, len(im.Pix))
	copy(pix, im.Pix)
	return &Image{W: im.W, H: im.H, Pix: pix}
}

// Skin is an image's skin statistics: the fraction of pixels inside
// the skin band and the skin coherence, the mean horizontal run length
// of skin pixels normalised by image width. Bodies are contiguous
// (high coherence); scattered skin-valued noise is not. The NSFW
// scorer combines the two.
type Skin struct {
	Fraction, Coherence float64
}

// skinBand[p] is 1 when pixel value p lies in the skin band.
var skinBand = func() (band [256]uint8) {
	for p := SkinLo; p <= SkinHi; p++ {
		band[p] = 1
	}
	return band
}()

// SkinStats returns the image's skin statistics. Every skin pixel
// belongs to exactly one run, so the kernel counts skin pixels and
// run starts (a skin pixel whose left neighbour in the row is not
// skin) with table lookups and no branch per pixel.
func (im *Image) SkinStats() Skin {
	if im.W <= 0 || im.H <= 0 || len(im.Pix) == 0 {
		return Skin{}
	}
	skin, runs := 0, 0
	for y := 0; y < im.H; y++ {
		var prev uint8
		for _, p := range im.Pix[y*im.W : (y+1)*im.W] {
			in := skinBand[p]
			skin += int(in)
			runs += int(in &^ prev)
			prev = in
		}
	}
	s := Skin{Fraction: float64(skin) / float64(len(im.Pix))}
	if runs > 0 {
		s.Coherence = float64(skin) / float64(runs) / float64(im.W)
	}
	return s
}

// FillRect fills the rectangle [x0,x1)x[y0,y1) with value v plus
// per-pixel noise of amplitude amp, clamped to a byte. Pixels off the
// image are not written but still consume their noise draw, so the
// rng leaves the fill in the same state wherever the shape lies.
func (im *Image) FillRect(rng *randx.Rand, x0, y0, x1, y1 int, v byte, amp int) {
	n := newFillNoise(rng, v, amp)
	for y := y0; y < y1; y++ {
		n.span(im.row(y), x0, x1)
	}
}

// FillEllipse fills the axis-aligned ellipse centred at (cx, cy) with
// radii (rx, ry), value v and noise amplitude amp. A pixel is inside
// when dx*dx+dy*dy <= 1 for its offsets scaled by the radii; on each
// row that set is the span [cx-k, cx+k].
func (im *Image) FillEllipse(rng *randx.Rand, cx, cy, rx, ry int, v byte, amp int) {
	if rx <= 0 || ry <= 0 {
		return
	}
	n := newFillNoise(rng, v, amp)
	frx := float64(rx)
	inside := func(k int, dy2 float64) bool {
		dx := float64(k) / frx
		return dx*dx+dy2 <= 1
	}
	for y := cy - ry; y <= cy+ry; y++ {
		dy := float64(y-cy) / float64(ry)
		dy2 := dy * dy
		// The predicate is monotone in |x-cx| and symmetric about cx
		// (float64(-k)/frx is exactly -(float64(k)/frx)), so the row's
		// inside set is [cx-k, cx+k] for the largest k that passes.
		// The square-root estimate only starts the search; the loops
		// settle k on the predicate itself.
		k := min(int(frx*math.Sqrt(max(0, 1-dy2))), rx)
		for k < rx && inside(k+1, dy2) {
			k++
		}
		for k >= 0 && !inside(k, dy2) {
			k--
		}
		if k >= 0 {
			n.span(im.row(y), cx-k, cx+k+1)
		}
	}
}

// row returns row y of the raster, or nil when y is off the image.
func (im *Image) row(y int) []byte {
	if y < 0 || y >= im.H {
		return nil
	}
	return im.Pix[y*im.W : (y+1)*im.W]
}

// fillNoise draws a fill's pixel values: v plus rng.Intn(2*amp+1)-amp,
// clamped to a byte. For a bound that fits 32 bits, span inlines
// Intn's Lemire draw with the rejection threshold computed once per
// fill; it consumes exactly the rng words Intn would.
type fillNoise struct {
	rng       *randx.Rand
	v, amp    int
	bound     uint32 // 2*amp+1; 0 when amp <= 0 or the bound needs Intn's 64-bit path
	threshold uint32 // Lemire's rejection threshold for bound
}

func newFillNoise(rng *randx.Rand, v byte, amp int) fillNoise {
	n := fillNoise{rng: rng, v: int(v), amp: amp}
	if b := 2*amp + 1; amp > 0 && b > 0 && b <= math.MaxInt32 {
		n.bound = uint32(b)
		n.threshold = -n.bound % n.bound
	}
	return n
}

// pixel draws one pixel value through Intn.
func (n *fillNoise) pixel() byte {
	p := n.v
	if n.amp > 0 {
		p += n.rng.Intn(2*n.amp+1) - n.amp
	}
	return clampByte(p)
}

// redraw repeats a rejected Lemire draw until one is accepted.
func (n *fillNoise) redraw() uint64 {
	for {
		prod := uint64(n.rng.Uint32()) * uint64(n.bound)
		if uint32(prod) >= n.threshold {
			return prod
		}
	}
}

// span draws the pixels x0..x1-1 of one row in order, writing those
// that fall on row (nil for a row off the image).
func (n *fillNoise) span(row []byte, x0, x1 int) {
	lo, hi := max(x0, 0), min(x1, len(row))
	if lo >= hi {
		for x := x0; x < x1; x++ {
			n.pixel()
		}
		return
	}
	for x := x0; x < lo; x++ {
		n.pixel()
	}
	seg := row[lo:hi]
	if n.bound == 0 {
		for i := range seg {
			seg[i] = n.pixel()
		}
	} else {
		rng, bound, base := n.rng, uint64(n.bound), n.v-n.amp
		for i := range seg {
			prod := uint64(rng.Uint32()) * bound
			if uint32(prod) < n.threshold {
				prod = n.redraw()
			}
			seg[i] = clampByte(base + int(prod>>32))
		}
	}
	for x := hi; x < x1; x++ {
		n.pixel()
	}
}

func clampByte(p int) byte { return byte(min(max(p, 0), 255)) }

// DrawText renders text starting at (x, y) with the given integer
// scale using the package font. Characters outside the font (and
// spaces) advance the cursor without drawing. It returns the x
// coordinate after the last glyph.
func (im *Image) DrawText(x, y, scale int, text string) int {
	if scale < 1 {
		scale = 1
	}
	adv := (GlyphW + 1) * scale
	for _, r := range text {
		if g, ok := Glyph(r); ok {
			for gy := 0; gy < GlyphH; gy++ {
				row := g[gy]
				for gx := 0; gx < GlyphW; gx++ {
					if row[gx] != '#' {
						continue
					}
					for sy := 0; sy < scale; sy++ {
						for sx := 0; sx < scale; sx++ {
							im.Set(x+gx*scale+sx, y+gy*scale+sy, Ink)
						}
					}
				}
			}
		}
		x += adv
	}
	return x
}

// TextWidth returns the pixel width of text at the given scale.
func TextWidth(text string, scale int) int {
	if scale < 1 {
		scale = 1
	}
	n := len([]rune(text))
	return n * (GlyphW + 1) * scale
}

// LineHeight returns the pixel height of a text line at a scale,
// including one blank row of spacing.
func LineHeight(scale int) int {
	if scale < 1 {
		scale = 1
	}
	return (GlyphH + 1) * scale
}

// Mirror returns a horizontally flipped copy. Actors mirror images to
// evade reverse image search; the difference hash is not mirror-
// invariant, so this transform defeats matching, as in the paper.
func (im *Image) Mirror() *Image {
	out := &Image{W: im.W, H: im.H, Pix: make([]byte, len(im.Pix))}
	w := im.W
	for y := 0; y < im.H; y++ {
		src := im.Pix[y*w : (y+1)*w]
		dst := out.Pix[y*w : (y+1)*w]
		for x, p := range src {
			dst[w-1-x] = p
		}
	}
	return out
}

// Recompress simulates lossy re-encoding by quantising pixel values to
// the given number of levels (2..256). Quantisation perturbs pixels
// slightly, which perceptual hashes must (and do) survive.
func (im *Image) Recompress(levels int) *Image {
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
	// The quantiser is a pure per-value map: build it once as a lookup
	// table, then sweep the raster with a single table-indexed pass.
	var lut [256]byte
	for i := range lut {
		v := (i/q)*q + q/2
		if v > 255 {
			v = 255
		}
		lut[i] = byte(v)
	}
	out := &Image{W: im.W, H: im.H, Pix: make([]byte, len(im.Pix))}
	for i, p := range im.Pix {
		out.Pix[i] = lut[p]
	}
	return out
}

// Watermark returns a copy with a text watermark drawn near the bottom
// left — the preview-modification habit the paper observes ("actors
// purposely modify these images to bypass reverse image searches").
func (im *Image) Watermark(text string) *Image {
	out := im.Clone()
	y := im.H - LineHeight(1) - 1
	if y < 0 {
		y = 0
	}
	out.DrawText(2, y, 1, text)
	return out
}

// Shade returns a copy with the bottom strip (frac of the height)
// darkened — another common preview modification.
func (im *Image) Shade(frac float64) *Image {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	out := im.Clone()
	y0 := int(float64(im.H) * (1 - frac))
	if y0 < 0 {
		y0 = 0
	}
	for y := y0; y < im.H; y++ {
		row := out.Pix[y*im.W : (y+1)*im.W]
		for i, p := range row {
			row[i] = p / 3
		}
	}
	return out
}

// resizePix box-samples into dst (len w*h). Each target cell averages
// the source rectangle [x*W/w,(x+1)*W/w) × [y*H/h,(y+1)*H/h), widened
// to at least one source pixel when upsampling — summed over row
// slices, so the kernel never pays per-pixel At bounds checks.
func (im *Image) resizePix(dst []byte, w, h int) {
	for y := 0; y < h; y++ {
		sy0 := y * im.H / h
		sy1 := (y + 1) * im.H / h
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		if sy1 > im.H {
			sy1 = im.H
		}
		out := dst[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			sx0 := x * im.W / w
			sx1 := (x + 1) * im.W / w
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			if sx1 > im.W {
				sx1 = im.W
			}
			sum := 0
			for sy := sy0; sy < sy1; sy++ {
				for _, p := range im.Pix[sy*im.W+sx0 : sy*im.W+sx1] {
					sum += int(p)
				}
			}
			if n := (sy1 - sy0) * (sx1 - sx0); n > 0 {
				out[x] = byte(sum / n)
			} else {
				out[x] = 0
			}
		}
	}
}

// Hash is a 64-bit perceptual hash.
type Hash uint64

// DHash computes the difference hash: the image is box-sampled to 9x8
// and each bit records whether a pixel is brighter than its right
// neighbour. Small photometric changes flip few bits; mirroring flips
// roughly half.
func DHash(im *Image) Hash {
	var small [72]byte
	im.resizePix(small[:], 9, 8)
	return dhashOf(&small)
}

// dhashOf folds a 9x8 downsample into the difference hash.
func dhashOf(small *[72]byte) Hash {
	var h Hash
	bit := 0
	for y := 0; y < 8; y++ {
		row := small[y*9 : y*9+9]
		for x := 0; x < 8; x++ {
			if row[x] > row[x+1] {
				h |= 1 << uint(bit)
			}
			bit++
		}
	}
	return h
}

// AHash computes the average hash: 8x8 downsample, each bit records
// whether the pixel exceeds the mean. PhotoDNA-style robust matching
// uses AHash with a Hamming radius.
func AHash(im *Image) Hash {
	var small [64]byte
	im.resizePix(small[:], 8, 8)
	return ahashOf(&small)
}

// ahashOf folds an 8x8 downsample into the average hash.
func ahashOf(small *[64]byte) Hash {
	sum := 0
	for _, p := range small {
		sum += int(p)
	}
	mean := byte(sum / 64)
	var h Hash
	for i, p := range small {
		if p > mean {
			h |= 1 << uint(i)
		}
	}
	return h
}

// Distance returns the Hamming distance between two hashes.
func (h Hash) Distance(other Hash) int {
	return bits.OnesCount64(uint64(h ^ other))
}

// String formats the hash as 16 hex digits.
func (h Hash) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// Hash128 is a composite perceptual hash: the average hash (global
// luminance layout) concatenated with the difference hash (local
// gradients). The two components fail differently, so their summed
// Hamming distance separates "same image, re-encoded" (a few bits)
// from "different image of the same kind" (tens of bits) far more
// reliably than either alone. Both the PhotoDNA stand-in and the
// reverse image search match on Hash128.
type Hash128 struct {
	A Hash
	D Hash
}

// Hash128Of computes the composite hash of an image. For rasters at
// least 9x8 — every generated image — both downsamples are accumulated
// in one traversal of the source with no heap allocation; smaller
// rasters take the generic per-hash path (bit-identical either way).
func Hash128Of(im *Image) Hash128 {
	if im.W >= 9 && im.H >= 8 && im.W <= hash128ColBound {
		return hash128Fused(im)
	}
	return Hash128{A: AHash(im), D: DHash(im)}
}

// hash128ColBound caps the raster width the fused fast path handles
// with its stack-resident column accumulator; wider rasters take the
// generic per-hash path. Study images are 48–150 pixels wide.
const hash128ColBound = 512

// hash128Fused computes both hash components in a single traversal of
// the source raster. The 8x8 (average-hash) and 9x8 (difference-hash)
// grids share their row bands, so each source row is loaded exactly
// once into a per-column accumulator; at each band boundary the
// column sums are reduced into both grids' cells along the x
// boundaries. Per-cell counts come from the box boundaries, which for
// W>=9 and H>=8 partition the raster exactly as resizePix does (the
// upsampling fixup never fires), keeping every output bit identical
// to the AHash/DHash reference path. All state lives on the stack:
// steady-state heap allocations are zero.
func hash128Fused(im *Image) Hash128 {
	w, h := im.W, im.H
	var xb8 [9]int
	var xb9 [10]int
	for i := range xb8 {
		xb8[i] = i * w / 8
	}
	for i := range xb9 {
		xb9[i] = i * w / 9
	}
	// col holds one row band's per-column sums: 255 * H fits int32.
	var col [hash128ColBound]int32
	var small8 [64]byte
	var small9 [72]byte
	for ty := 0; ty < 8; ty++ {
		sy0, sy1 := ty*h/8, (ty+1)*h/8
		for i := 0; i < w; i++ {
			col[i] = 0
		}
		for sy := sy0; sy < sy1; sy++ {
			row := im.Pix[sy*w : (sy+1)*w]
			for x, p := range row {
				col[x] += int32(p)
			}
		}
		rh := sy1 - sy0
		for tx := 0; tx < 8; tx++ {
			s := 0
			for _, c := range col[xb8[tx]:xb8[tx+1]] {
				s += int(c)
			}
			small8[ty*8+tx] = byte(s / (rh * (xb8[tx+1] - xb8[tx])))
		}
		for tx := 0; tx < 9; tx++ {
			s := 0
			for _, c := range col[xb9[tx]:xb9[tx+1]] {
				s += int(c)
			}
			small9[ty*9+tx] = byte(s / (rh * (xb9[tx+1] - xb9[tx])))
		}
	}
	return Hash128{A: ahashOf(&small8), D: dhashOf(&small9)}
}

// Distance returns the summed Hamming distance (0..128).
func (h Hash128) Distance(other Hash128) int {
	return h.A.Distance(other.A) + h.D.Distance(other.D)
}

// String formats the hash as 32 hex digits.
func (h Hash128) String() string { return h.A.String() + h.D.String() }

// Digest is what the study reads of an image's pixels: its composite
// hash and its skin statistics. The crawl computes it once per
// distinct image, where the image is decoded, and every later stage
// reads it instead of rescanning the raster.
type Digest struct {
	Hash Hash128
	Skin Skin
}

// DigestOf computes the digest of an image.
func DigestOf(im *Image) Digest {
	return Digest{Hash: Hash128Of(im), Skin: im.SkinStats()}
}

// --- SIMG container -------------------------------------------------

// simgMagic identifies the SIMG container format.
var simgMagic = []byte("SIMG")

const simgVersion = 1

// ErrBadFormat reports a malformed SIMG payload.
var ErrBadFormat = errors.New("imagex: malformed SIMG data")

// simgHeader is the SIMG container header of an image: magic,
// version, width and height.
func (im *Image) simgHeader() [9]byte {
	var h [9]byte
	copy(h[:], simgMagic)
	h[4] = simgVersion
	binary.BigEndian.PutUint16(h[5:7], uint16(im.W))
	binary.BigEndian.PutUint16(h[7:9], uint16(im.H))
	return h
}

// Encode serialises the image into the SIMG container.
func (im *Image) Encode() []byte {
	hdr := im.simgHeader()
	buf := make([]byte, 0, len(hdr)+len(im.Pix))
	buf = append(buf, hdr[:]...)
	return append(buf, im.Pix...)
}

// Decode parses a SIMG payload into an image that owns a copy of the
// pixels, so data may be reused once Decode returns.
func Decode(data []byte) (*Image, error) {
	im, err := decodeView(data)
	if err != nil {
		return nil, err
	}
	im.Pix = bytes.Clone(im.Pix)
	return im, nil
}

// decodeView parses a SIMG payload into an image whose pixels alias
// data: the caller hands data over and must not write to it again.
func decodeView(data []byte) (*Image, error) {
	if len(data) < 9 || !bytes.Equal(data[:4], simgMagic) {
		return nil, ErrBadFormat
	}
	if data[4] != simgVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, data[4])
	}
	w := int(binary.BigEndian.Uint16(data[5:7]))
	h := int(binary.BigEndian.Uint16(data[7:9]))
	if w == 0 || h == 0 {
		return nil, fmt.Errorf("%w: zero dimension", ErrBadFormat)
	}
	if len(data)-9 != w*h {
		return nil, fmt.Errorf("%w: pixel payload %d != %dx%d", ErrBadFormat, len(data)-9, w, h)
	}
	return &Image{W: w, H: h, Pix: data[9:len(data):len(data)]}, nil
}

// --- Pack archives ---------------------------------------------------

// flatePool recycles the deflate writer and output buffer of pack
// entry encodes: flate.NewWriter builds ~64 KiB of match tables per
// call, which dominated pack encoding when every entry paid it.
var flatePool = sync.Pool{New: func() any { return new(flateScratch) }}

type flateScratch struct {
	fw  *flate.Writer
	out bytes.Buffer
}

// PackEntry is one deflated pack member: an image's SIMG encoding,
// Huffman-only deflated, with the CRC-32 and raw size its zip headers
// record. It depends on the image alone, so a member that recurs
// across packs can be deflated once and written raw into each.
type PackEntry struct {
	Data  []byte
	CRC32 uint32
	Size  uint64
}

// DeflatePackEntry encodes and deflates one pack member. Synthetic
// rasters are per-pixel noise with no repeats for LZ77 to find: on 900
// model rasters BestSpeed and Huffman-only produce the same 0.69 of
// raw size, and Huffman-only encodes about 30% faster.
func DeflatePackEntry(im *Image) PackEntry {
	hdr := im.simgHeader()
	sc := flatePool.Get().(*flateScratch)
	sc.out.Reset()
	if sc.fw == nil {
		// HuffmanOnly is a valid level, so NewWriter cannot fail.
		sc.fw, _ = flate.NewWriter(&sc.out, flate.HuffmanOnly)
	} else {
		sc.fw.Reset(&sc.out)
	}
	// Writes into a bytes.Buffer cannot fail. A Huffman-only writer
	// cuts blocks at fixed window boundaries, so writing the header
	// and pixels separately emits the bytes one Write of Encode would.
	sc.fw.Write(hdr[:])
	sc.fw.Write(im.Pix)
	sc.fw.Close()
	e := PackEntry{
		Data:  bytes.Clone(sc.out.Bytes()),
		CRC32: crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, im.Pix),
		Size:  uint64(len(hdr) + len(im.Pix)),
	}
	flatePool.Put(sc)
	return e
}

// packEntryName is the zip name of the i-th (0-based) pack member.
func packEntryName(i int) string { return fmt.Sprintf("%04d.simg", i+1) }

// WritePackZip writes deflated entries as a zip archive with entries
// 0001.simg, 0002.simg, ... — the shape of the packs actors upload to
// cloud storage. The headers are the ones zip.Writer.Create writes
// (Deflate, version 2.0 to extract and made by, sizes and CRC in a
// trailing data descriptor), so the archive is byte for byte the one
// Create would produce from the same images.
func WritePackZip(entries []PackEntry) ([]byte, error) {
	// Local header + name + data + descriptor, central record + name,
	// then the end-of-directory record: the exact archive length.
	n := 22
	for i, e := range entries {
		n += 30 + 16 + 46 + 2*len(packEntryName(i)) + len(e.Data)
	}
	buf := bytes.NewBuffer(make([]byte, 0, n))
	zw := zip.NewWriter(buf)
	for i, e := range entries {
		w, err := zw.CreateRaw(&zip.FileHeader{
			Name:               packEntryName(i),
			Method:             zip.Deflate,
			Flags:              0x8, // sizes and CRC follow in a data descriptor
			CreatorVersion:     20,
			ReaderVersion:      20,
			CRC32:              e.CRC32,
			CompressedSize64:   uint64(len(e.Data)),
			UncompressedSize64: e.Size,
		})
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(e.Data); err != nil {
			return nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodePackZip bundles images into a pack archive: each image
// deflated by DeflatePackEntry, then written by WritePackZip.
func EncodePackZip(images []*Image) ([]byte, error) {
	entries := make([]PackEntry, len(images))
	for i, im := range images {
		entries[i] = DeflatePackEntry(im)
	}
	return WritePackZip(entries)
}

// PackDecoder extracts the images of pack archives, inflating and
// digesting each distinct member once. Packs repeat members heavily
// (synth writes a recurring member's compressed bytes verbatim into
// every pack that holds it), so the decoder keys each member by its
// method, data-descriptor flag, CRC-32 and both sizes, and confirms a
// hit by comparing the compressed bytes. Every occurrence of a member
// therefore yields the same *Image and Digest: callers share the
// image and must not write to it. The zero value is ready for use and
// safe for concurrent use; it keeps every distinct member it has seen
// (one copy of the compressed bytes plus the image), so its life is
// one crawl.
type PackDecoder struct {
	mu      sync.Mutex
	members map[memberKey][]*packMember
}

// memberKey is the central directory's account of a member. Two
// members with equal keys and equal compressed bytes, whose data
// descriptors memberBytes has checked, pass or fail every archive/zip
// check alike, so they decode to the same image.
type memberKey struct {
	method       uint16
	descriptor   bool
	crc32        uint32
	csize, usize uint64
}

func keyOf(f *zip.File) memberKey {
	return memberKey{
		method:     f.Method,
		descriptor: f.Flags&zipDescriptorFlag != 0,
		crc32:      f.CRC32,
		csize:      f.CompressedSize64,
		usize:      f.UncompressedSize64,
	}
}

// packMember is one distinct member: its own copy of the compressed
// bytes (nothing it keeps points into the caller's buffer) and the
// image and digest its single inflate produced.
type packMember struct {
	raw    []byte
	once   sync.Once
	im     *Image
	digest Digest
	err    error
}

// Decode extracts every .simg entry from a zip archive, in entry-name
// order, with each image's Digest. Non-SIMG entries are skipped; a
// corrupt SIMG entry is an error.
func (d *PackDecoder) Decode(data []byte) ([]*Image, []Digest, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, nil, fmt.Errorf("imagex: not a zip archive: %w", err)
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
	// A Huffman-only SIMG member inflates to ~1.45x its compressed
	// bytes and a stored one to 1x, so no honest member of this archive
	// needs more than twice the archive. The presize stops there: a
	// header claiming more cannot make the decoder allocate it.
	limit := 2 * uint64(len(data))
	images := make([]*Image, 0, len(names))
	digests := make([]Digest, 0, len(names))
	for _, name := range names {
		f := byName[name]
		m, err := d.member(data, f)
		if err != nil {
			return nil, nil, err
		}
		m.once.Do(func() { m.im, m.digest, m.err = decodeMember(f, limit) })
		if m.err != nil {
			if errors.Is(m.err, ErrBadFormat) {
				return nil, nil, fmt.Errorf("imagex: entry %s: %w", name, m.err)
			}
			return nil, nil, m.err
		}
		images = append(images, m.im)
		digests = append(digests, m.digest)
	}
	return images, digests, nil
}

// member returns the entry of f's compressed bytes, adding one on
// first sight. A member whose bytes or data descriptor are not all in
// data gets a fresh entry that is not kept, so its inflate reads and
// fails exactly as archive/zip reads and fails it.
func (d *PackDecoder) member(data []byte, f *zip.File) (*packMember, error) {
	off, err := f.DataOffset()
	if err != nil {
		return nil, err
	}
	raw, ok := memberBytes(data, off, f)
	if !ok {
		return new(packMember), nil
	}
	k := keyOf(f)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range d.members[k] {
		if bytes.Equal(m.raw, raw) {
			return m, nil
		}
	}
	if d.members == nil {
		d.members = make(map[memberKey][]*packMember)
	}
	m := &packMember{raw: bytes.Clone(raw)}
	d.members[k] = append(d.members[k], m)
	return m, nil
}

// zipDescriptorFlag marks a member whose CRC-32 and sizes follow its
// data in a data descriptor.
const zipDescriptorFlag = 0x8

// zipDescriptorSig is the optional signature of a data descriptor.
const zipDescriptorSig = 0x08074b50

// memberBytes returns f's compressed bytes, which start at off in
// data. ok is false when they run past data, or when f has a data
// descriptor whose CRC-32 archive/zip would not accept: such a member
// is never shared, so a hit always stands for a member that passes
// the descriptor check too.
func memberBytes(data []byte, off int64, f *zip.File) (raw []byte, ok bool) {
	if off < 0 || f.CompressedSize64 > uint64(len(data)) ||
		uint64(off) > uint64(len(data))-f.CompressedSize64 {
		return nil, false
	}
	end := off + int64(f.CompressedSize64)
	if f.Flags&zipDescriptorFlag != 0 {
		// archive/zip reads the descriptor's CRC-32 after an optional
		// signature and compares it to the central directory's.
		desc := data[end:]
		crcAt, need := 0, 12
		if len(desc) >= 4 && binary.LittleEndian.Uint32(desc) == zipDescriptorSig {
			crcAt, need = 4, 16
		}
		if len(desc) < need || binary.LittleEndian.Uint32(desc[crcAt:]) != f.CRC32 {
			return nil, false
		}
	}
	return data[off:end], true
}

// decodeMember inflates one member through archive/zip, which checks
// its size and CRC-32, into a buffer presized from the header's
// uncompressed size (capped at limit), and digests the image. The
// image's pixels alias that buffer.
func decodeMember(f *zip.File, limit uint64) (*Image, Digest, error) {
	rc, err := f.Open()
	if err != nil {
		return nil, Digest{}, err
	}
	defer rc.Close()
	// One byte past the payload: the read that returns io.EOF, and
	// with it archive/zip's checks, finds room without growing.
	buf := make([]byte, 0, min(f.UncompressedSize64, limit)+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rc.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, Digest{}, err
		}
	}
	im, err := decodeView(buf)
	if err != nil {
		return nil, Digest{}, err
	}
	return im, DigestOf(im), nil
}
