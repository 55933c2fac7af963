// Package ocr is the reproduction's stand-in for the Tesseract OCR
// engine: it recognises text rendered with the imagex glyph font and
// reports the number of words found, which is the only output
// Algorithm 1 consumes ("the Tesseract software, which outputs the
// number of words recognised in an image").
//
// The engine genuinely reads pixels: it binarises the raster, encodes
// each row as the 5-bit ink pattern of every 5-pixel run, accepts a
// 5x7 window where its 7 row codes select one of the font's templates
// exactly (the AND of per-row template bitsets), and groups matched
// glyphs into words by horizontal gaps. Text screenshots therefore
// score high, model photos score zero, and noisy or dark images score
// near zero — the same behaviour contour the real pipeline relies on.
package ocr

import (
	"bytes"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/imagex"
)

// inkThreshold binarises pixels: values below it count as ink.
const inkThreshold = 128

// wordGap is the minimum pixel gap between glyphs that starts a new
// word. Glyphs within a word are 1 blank column apart (advance 6,
// width 5); a space character adds a full 6-pixel advance.
const wordGap = 6

// template is a prepared glyph: its rune and its ink area.
type template struct {
	r       rune
	inkArea int
}

// rowCodes is the number of distinct ink patterns of one GlyphW-wide
// row: bit dx of a row code is set when column dx of the row is ink.
const rowCodes = 1 << imagex.GlyphW

// templates holds the font's glyphs in rune order. rowSets[dy][c] has
// bit i set when row dy of templates[i] has row code c, so the
// templates a window matches are the AND of its rows' sets.
var templates, rowSets = buildTemplates()

func buildTemplates() ([]template, [imagex.GlyphH][rowCodes]uint64) {
	runes := imagex.GlyphRunes()
	slices.Sort(runes)
	out := make([]template, 0, len(runes))
	var sets [imagex.GlyphH][rowCodes]uint64
	for _, r := range runes {
		g, _ := imagex.Glyph(r)
		var codes [imagex.GlyphH]byte
		area := 0
		for y := 0; y < imagex.GlyphH; y++ {
			for x := 0; x < imagex.GlyphW; x++ {
				if g[y][x] == '#' {
					codes[y] |= 1 << x
					area++
				}
			}
		}
		if area == 0 {
			continue
		}
		if len(out) == 64 {
			panic("ocr: more than 64 glyph templates do not fit the uint64 row sets")
		}
		for y, c := range codes {
			sets[y][c] |= 1 << len(out)
		}
		out = append(out, template{r: r, inkArea: area})
	}
	return out, sets
}

// Glyph is one recognised character with its position.
type Glyph struct {
	R    rune
	X, Y int
}

// Result is the outcome of recognising an image.
type Result struct {
	Glyphs []Glyph
	Words  int
	Text   string
}

// WordCount returns just the number of words recognised in the image.
func WordCount(im *imagex.Image) int { return Recognize(im).Words }

// Recognize scans the image for font glyphs and groups them into
// words and lines.
func Recognize(im *imagex.Image) Result {
	w, h := im.W, im.H
	if w < imagex.GlyphW || h < imagex.GlyphH {
		return Result{}
	}
	// The ink mask is borrowed from maskPool for this call only;
	// encodeRows turns it into row codes in place.
	box := maskPool.Get().(*[]byte)
	defer maskPool.Put(box)
	if cap(*box) < w*h {
		*box = make([]byte, w*h)
	}
	codes := (*box)[:w*h]
	binarise(codes, im)
	encodeRows(codes, w)

	var cands []candidate
	for y := 0; y+imagex.GlyphH <= h; y++ {
		// A glyph needs ink somewhere in its 7-row window; the last
		// cell of each encoded row is its ink flag.
		windowHasInk := false
		for dy := 0; dy < imagex.GlyphH; dy++ {
			if codes[(y+dy)*w+w-1] != 0 {
				windowHasInk = true
				break
			}
		}
		if !windowHasInk {
			continue
		}
		window := codes[y*w : (y+imagex.GlyphH)*w]
		for x := 0; x+imagex.GlyphW <= w; {
			// The set of templates every row so far agrees with. The
			// lowest set bit is the first match in rune order.
			set := rowSets[0][window[x]]
			for dy := 1; set != 0 && dy < imagex.GlyphH; dy++ {
				set &= rowSets[dy][window[dy*w+x]]
			}
			if set == 0 {
				x++
				continue
			}
			t := &templates[bits.TrailingZeros64(set)]
			cands = append(cands, candidate{Glyph{R: t.r, X: x, Y: y}, t.inkArea})
			x += imagex.GlyphW + 1
		}
	}

	glyphs := resolve(cands, w, h)
	words, text := group(glyphs)
	return Result{Glyphs: glyphs, Words: words, Text: text}
}

// maskPool recycles Recognize's ink-mask buffers. Each buffer sits in
// a *[]byte box, so Put does not allocate an interface value, and a
// box whose buffer is too small grows it in place and keeps it: a
// large raster never leaves behind a small buffer that every later
// large raster would have to replace.
var maskPool = sync.Pool{New: func() any { return new([]byte) }}

// binarise writes the ink mask of im into dst (len(im.Pix) cells): 1
// where the pixel reads as ink, 0 elsewhere.
func binarise(dst []byte, im *imagex.Image) {
	for i, p := range im.Pix {
		if p < inkThreshold {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// encodeRows rewrites a binarised mask of w-cell rows, w at least
// GlyphW, in place.
// In each row with ink, cell x becomes the row code of columns
// x..x+GlyphW-1 for every x a glyph window can start at, and the last
// cell, where no window starts, becomes 1: the row's ink flag. A blank
// row is left as it is, all zeros, which reads as blank codes and a
// clear flag. The walk runs left to right and each cell reads only
// itself and cells to its right, so no cell is read after it has been
// overwritten.
func encodeRows(mask []byte, w int) {
	for y := 0; y+w <= len(mask); y += w {
		row := mask[y : y+w]
		if bytes.IndexByte(row, 1) < 0 {
			continue
		}
		var code byte
		for dx := 0; dx < imagex.GlyphW-1; dx++ {
			code |= row[dx] << dx
		}
		for x := 0; x+imagex.GlyphW <= w; x++ {
			code |= row[x+imagex.GlyphW-1] << (imagex.GlyphW - 1)
			row[x] = code
			code >>= 1
		}
		row[w-1] = 1
	}
}

// candidate is a template match before overlap resolution.
type candidate struct {
	g    Glyph
	area int
}

// resolve removes overlapping candidate matches from a w x h image.
// Sparse punctuation templates ('.', '-') can ghost-match across line
// boundaries inside another glyph's cell; preferring the candidate
// with the larger ink area keeps the true glyph. Candidates are
// visited by ink area descending, then Y, then X: they arrive in
// (Y, X) order, so a stable counting sort on area gives that order in
// linear time. Accepted glyphs never overlap, so a GlyphW x GlyphH
// cell of the image holds the origin of at most one of them, and a
// candidate can only overlap an accepted glyph whose origin lies in
// its own cell or one of the eight around it. The accepted glyphs
// come back in candidate order, which is (Y, X).
func resolve(cands []candidate, w, h int) []Glyph {
	if len(cands) == 0 {
		return nil
	}
	// Counting sort on maxArea-area, a key in [0, maxArea).
	const maxArea = imagex.GlyphW * imagex.GlyphH
	var next [maxArea + 1]int
	for _, c := range cands {
		next[maxArea-c.area+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	order := make([]int32, len(cands))
	for i, c := range cands {
		k := maxArea - c.area
		order[next[k]] = int32(i)
		next[k]++
	}

	// grid holds, per cell, 1 + the index of the accepted candidate
	// whose origin lies in it, or 0.
	gw := (w-imagex.GlyphW)/imagex.GlyphW + 1
	gh := (h-imagex.GlyphH)/imagex.GlyphH + 1
	grid := make([]int32, gw*gh)
	cell := func(g Glyph) int { return g.Y/imagex.GlyphH*gw + g.X/imagex.GlyphW }
	accepted := 0
	for _, i := range order {
		g := cands[i].g
		cx, cy := g.X/imagex.GlyphW, g.Y/imagex.GlyphH
		overlap := false
		for ny := max(cy-1, 0); !overlap && ny <= min(cy+1, gh-1); ny++ {
			for nx := max(cx-1, 0); nx <= min(cx+1, gw-1); nx++ {
				if a := grid[ny*gw+nx]; a != 0 {
					o := cands[a-1].g
					if abs(g.Y-o.Y) < imagex.GlyphH && abs(g.X-o.X) < imagex.GlyphW {
						overlap = true
						break
					}
				}
			}
		}
		if !overlap {
			grid[cell(g)] = i + 1
			accepted++
		}
	}
	out := make([]Glyph, 0, accepted)
	for i, c := range cands {
		if grid[cell(c.g)] == int32(i)+1 {
			out = append(out, c.g)
		}
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// group splits recognised glyphs into words (same line, gap below
// wordGap+GlyphW) and reconstructs the text.
func group(glyphs []Glyph) (int, string) {
	if len(glyphs) == 0 {
		return 0, ""
	}
	words := 0
	var sb strings.Builder
	prev := Glyph{X: -1 << 30, Y: -1 << 30}
	for _, g := range glyphs {
		newLine := g.Y != prev.Y
		newWord := newLine || g.X-prev.X > imagex.GlyphW+wordGap
		if newWord {
			words++
			if sb.Len() > 0 {
				if newLine {
					sb.WriteByte('\n')
				} else {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteRune(g.R)
		prev = g
	}
	return words, sb.String()
}
