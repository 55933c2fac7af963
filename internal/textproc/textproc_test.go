package textproc

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasics(t *testing.T) {
	got := Tokenize("Selling PACK!!! pm-me, thanks.")
	want := []string{"selling", "pack", "pm", "me", "thanks"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v want %v", got, want)
	}
}

func TestTokenizeDropsNumberedTokens(t *testing.T) {
	got := Tokenize("got 50 pics v2 pack")
	want := []string{"got", "pics", "pack"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize("  ... 123 !!"); len(got) != 0 {
		t.Fatalf("Tokenize = %v want empty", got)
	}
}

func TestTokenizeFiltered(t *testing.T) {
	got := TokenizeFiltered("I am selling a pack of the pics")
	want := []string{"selling", "pack", "pics"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TokenizeFiltered = %v want %v", got, want)
	}
}

func TestIsStopWord(t *testing.T) {
	if !IsStopWord("the") || IsStopWord("pack") {
		t.Fatal("stop word classification wrong")
	}
}

func TestVocabFitAndIndex(t *testing.T) {
	v := NewVocab()
	v.Fit([][]string{
		{"selling", "pack", "pack"},
		{"buying", "pack"},
	})
	if v.Size() != 3 {
		t.Fatalf("Size = %d", v.Size())
	}
	if v.Index("pack") < 0 || v.Index("nonexistent") != -1 {
		t.Fatal("Index lookup wrong")
	}
	// "pack" occurs in 2 docs, "selling" in 1.
	if v.DocFreq("pack") != 2 || v.DocFreq("selling") != 1 {
		t.Fatalf("DocFreq pack=%d selling=%d", v.DocFreq("pack"), v.DocFreq("selling"))
	}
}

func TestIDFOrdering(t *testing.T) {
	v := NewVocab()
	v.Fit([][]string{
		{"common", "rare"},
		{"common"},
		{"common"},
	})
	if v.IDF(v.Index("rare")) <= v.IDF(v.Index("common")) {
		t.Fatal("rare term should have higher IDF than common term")
	}
}

func TestCountVector(t *testing.T) {
	v := NewVocab()
	v.Fit([][]string{{"a", "b", "c"}})
	vec := v.CountVector([]string{"b", "b", "c", "zzz"})
	if len(vec.Idx) != 2 {
		t.Fatalf("vec = %+v", vec)
	}
	// Indices must be ascending and values match counts.
	if !sort.IntsAreSorted(vec.Idx) {
		t.Fatal("sparse indices not sorted")
	}
	bIdx := v.Index("b")
	for k, i := range vec.Idx {
		if i == bIdx && vec.Val[k] != 2 {
			t.Fatalf("count for b = %v", vec.Val[k])
		}
	}
}

func TestTFIDFVectorNormalised(t *testing.T) {
	v := NewVocab()
	v.Fit([][]string{{"a", "b"}, {"a", "c"}, {"a"}})
	vec := v.TFIDFVector([]string{"a", "b", "b"})
	if n := vec.L2Norm(); math.Abs(n-1) > 1e-9 {
		t.Fatalf("TF-IDF norm = %v, want 1", n)
	}
}

func TestTFIDFEmptyDoc(t *testing.T) {
	v := NewVocab()
	v.Fit([][]string{{"a"}})
	vec := v.TFIDFVector([]string{"unknown"})
	if len(vec.Idx) != 0 || vec.L2Norm() != 0 {
		t.Fatalf("vec = %+v", vec)
	}
}

func TestSparseDot(t *testing.T) {
	vec := SparseVec{Idx: []int{0, 2, 5}, Val: []float64{1, 2, 3}}
	dense := []float64{10, 0, 1, 0, 0, 2}
	if got := vec.Dot(dense); got != 10+2+6 {
		t.Fatalf("Dot = %v", got)
	}
	// Out-of-range indices contribute zero.
	short := []float64{1}
	if got := vec.Dot(short); got != 1 {
		t.Fatalf("Dot with short dense = %v", got)
	}
}

func TestSparseScale(t *testing.T) {
	vec := SparseVec{Idx: []int{0}, Val: []float64{4}}
	vec.Scale(0.25)
	if vec.Val[0] != 1 {
		t.Fatalf("Scale result %v", vec.Val)
	}
}

func TestTopTerms(t *testing.T) {
	v := NewVocab()
	v.Fit([][]string{
		{"pack", "selling"},
		{"pack", "buying"},
		{"pack"},
	})
	top := v.TopTerms(2)
	if top[0] != "pack" {
		t.Fatalf("TopTerms = %v", top)
	}
	if len(v.TopTerms(100)) != 3 {
		t.Fatal("TopTerms should clamp to vocab size")
	}
}

func TestCountOccurrences(t *testing.T) {
	n := CountOccurrences("WTS: Unsaturated Pack of pics", []string{"wts", "pack", "video"})
	if n != 2 {
		t.Fatalf("CountOccurrences = %d", n)
	}
}

func TestCountRune(t *testing.T) {
	if CountRune("how? why? when", '?') != 2 {
		t.Fatal("CountRune wrong")
	}
}

// Property: tokens are always lowercase and non-empty.
func TestQuickTokenizeInvariants(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: TF-IDF vectors have unit norm (or zero for empty docs) and
// ascending sparse indices.
func TestQuickTFIDFInvariants(t *testing.T) {
	v := NewVocab()
	v.Fit([][]string{
		{"alpha", "beta", "gamma"},
		{"alpha", "delta"},
		{"beta", "beta", "epsilon"},
	})
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "junk"}
	f := func(picks []uint8) bool {
		doc := make([]string, 0, len(picks))
		for _, p := range picks {
			doc = append(doc, words[int(p)%len(words)])
		}
		vec := v.TFIDFVector(doc)
		if !sort.IntsAreSorted(vec.Idx) {
			return false
		}
		n := vec.L2Norm()
		return n == 0 || math.Abs(n-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// referenceTokenize is the per-rune tokenizer Tokenize replaced: it
// lowercases each letter as it appends it to a fresh token buffer.
func referenceTokenize(text string) []string {
	var toks []string
	var cur strings.Builder
	hasDigit := false
	flush := func() {
		if cur.Len() > 0 {
			if !hasDigit {
				toks = append(toks, cur.String())
			}
			cur.Reset()
		}
		hasDigit = false
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			cur.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			cur.WriteRune('0')
			hasDigit = true
		default:
			flush()
		}
	}
	flush()
	return toks
}

// referenceTFIDF is the map-based TF-IDF TFIDFVector replaced.
func referenceTFIDF(v *Vocab, doc []string) SparseVec {
	counts := make(map[int]float64)
	for _, term := range doc {
		if idx, ok := v.index[term]; ok {
			counts[idx]++
		}
	}
	for idx, tf := range counts {
		counts[idx] = tf * v.IDF(idx)
	}
	idx := make([]int, 0, len(counts))
	for i := range counts {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	val := make([]float64, len(idx))
	for k, i := range idx {
		val[k] = counts[i]
	}
	vec := SparseVec{Idx: idx, Val: val}
	if n := vec.L2Norm(); n > 0 {
		vec.Scale(1 / n)
	}
	return vec
}

// TestLowerKeepsRuneClass checks, over every rune, the property
// Tokenize relies on to split the lowercased text instead of the
// original: lowercasing never changes whether a rune is a letter or a
// digit.
func TestLowerKeepsRuneClass(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		l := unicode.ToLower(r)
		if unicode.IsLetter(r) != unicode.IsLetter(l) || unicode.IsDigit(r) != unicode.IsDigit(l) {
			t.Fatalf("%U lowercases to %U of another class", r, l)
		}
	}
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, s := range []string{
		"", "Selling PACK!!! pm-me, thanks.", "got 50 pics v2 pack",
		"ÀÉÎ über İstanbul ΣΊΣΥΦΟΣ", "éclair", "bad\xffutf8\xc3", "x²y ٣abc a٣",
		"Ⅻ ⓐⒷ ǅungla", "trailing", "  lead and   spaces  ",
	} {
		if got, want := Tokenize(s), referenceTokenize(s); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
	}
	f := func(s string) bool { return reflect.DeepEqual(Tokenize(s), referenceTokenize(s)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTFIDFMatchesReference(t *testing.T) {
	v := NewVocab()
	v.Fit([][]string{
		{"alpha", "beta", "gamma"},
		{"alpha", "delta"},
		{"beta", "beta", "epsilon"},
	})
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "junk"}
	f := func(picks []uint8) bool {
		doc := make([]string, 0, len(picks))
		for _, p := range picks {
			doc = append(doc, words[int(p)%len(words)])
		}
		got, want := v.TFIDFVector(doc), referenceTFIDF(v, doc)
		return slices.Equal(got.Idx, want.Idx) && slices.Equal(got.Val, want.Val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
