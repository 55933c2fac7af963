// Package textproc implements the NLP preprocessing the TOP classifier
// feeds on: tokenisation, punctuation stripping, lower-casing, number
// removal, stop-word exclusion, document-term counting and TF-IDF
// weighting ("we parse thread headings and posts into a document-term
// matrix to get word-counts. We strip punctuation, convert to lower
// case characters, ignore numbers and exclude stop words. Finally,
// these word counts are transformed using TF-IDF").
package textproc

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// stopWords is a compact English stop-word list. Underground-forum text
// is informal, so the list also covers common contractions without
// their apostrophes (which tokenisation strips).
var stopWords = map[string]struct{}{}

func init() {
	for _, w := range strings.Fields(`
a about above after again all am an and any are arent as at be because
been before being below between both but by cant cannot could couldnt
did didnt do does doesnt doing dont down during each few for from
further had hadnt has hasnt have havent having he her here hers herself
him himself his how i if in into is isnt it its itself lets me more
most my myself no nor not of off on once only or other ought our ours
ourselves out over own same she should shouldnt so some such than that
the their theirs them themselves then there these they this those
through to too under until up very was wasnt we were werent what when
where which while who whom why with wont would wouldnt you your yours
yourself yourselves ur im ive id ill u r`) {
		stopWords[w] = struct{}{}
	}
}

// IsStopWord reports whether the (lowercase) token is a stop word.
func IsStopWord(tok string) bool {
	_, ok := stopWords[tok]
	return ok
}

// Tokenize splits text into lowercase alphabetic tokens, stripping
// punctuation and ignoring tokens that contain digits, per the paper's
// preprocessing. Stop words are retained; use TokenizeFiltered to drop
// them.
//
// The text is lowercased once and the tokens are substrings of that
// copy. Lowercasing keeps every rune's letter and digit class
// (TestLowerKeepsRuneClass), so splitting the lowercased text finds
// the same tokens as splitting the original.
func Tokenize(text string) []string {
	lower := strings.ToLower(text)
	var toks []string
	start, hasDigit := -1, false // start < 0 between tokens
	for i, r := range lower {
		switch {
		case unicode.IsLetter(r):
		case unicode.IsDigit(r):
			// Tokens containing numbers are ignored entirely.
			hasDigit = true
		default:
			if start >= 0 && !hasDigit {
				toks = append(toks, lower[start:i])
			}
			start, hasDigit = -1, false
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 && !hasDigit {
		toks = append(toks, lower[start:])
	}
	return toks
}

// TokenizeFiltered tokenises and removes stop words and single-letter
// tokens.
func TokenizeFiltered(text string) []string {
	toks := Tokenize(text)
	out := toks[:0]
	for _, t := range toks {
		if len(t) < 2 {
			continue
		}
		if IsStopWord(t) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Vocab maps terms to dense feature indices. Build one from the
// training corpus and reuse it to vectorise unseen documents (unknown
// terms are dropped).
type Vocab struct {
	index map[string]int
	terms []string
	df    []int // document frequency per term
	docs  int   // documents seen during Fit
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{index: make(map[string]int)}
}

// Fit extends the vocabulary with the terms of the given tokenised
// documents and accumulates document frequencies.
func (v *Vocab) Fit(docs [][]string) {
	for _, doc := range docs {
		v.docs++
		seen := make(map[int]struct{}, len(doc))
		for _, term := range doc {
			idx, ok := v.index[term]
			if !ok {
				// A token shares its document's memory; the
				// vocabulary outlives the document.
				term = strings.Clone(term)
				idx = len(v.terms)
				v.index[term] = idx
				v.terms = append(v.terms, term)
				v.df = append(v.df, 0)
			}
			if _, dup := seen[idx]; !dup {
				v.df[idx]++
				seen[idx] = struct{}{}
			}
		}
	}
}

// Size returns the number of distinct terms.
func (v *Vocab) Size() int { return len(v.terms) }

// Term returns the term at feature index i.
func (v *Vocab) Term(i int) string { return v.terms[i] }

// Index returns the feature index of a term, or -1 if unknown.
func (v *Vocab) Index(term string) int {
	if idx, ok := v.index[term]; ok {
		return idx
	}
	return -1
}

// DocFreq returns the number of fitted documents containing the term.
func (v *Vocab) DocFreq(term string) int {
	if idx, ok := v.index[term]; ok {
		return v.df[idx]
	}
	return 0
}

// IDF returns the smoothed inverse document frequency of term index i:
// ln((1+N)/(1+df)) + 1.
func (v *Vocab) IDF(i int) float64 {
	return math.Log(float64(1+v.docs)/float64(1+v.df[i])) + 1
}

// SparseVec is a sparse feature vector: parallel index/value slices
// with strictly ascending indices.
type SparseVec struct {
	Idx []int
	Val []float64
}

// Dot returns the inner product with a dense weight vector. Indices
// beyond the dense vector's length contribute zero.
func (s SparseVec) Dot(dense []float64) float64 {
	sum := 0.0
	for k, i := range s.Idx {
		if i < len(dense) {
			sum += s.Val[k] * dense[i]
		}
	}
	return sum
}

// L2Norm returns the Euclidean norm of the vector.
func (s SparseVec) L2Norm() float64 {
	sum := 0.0
	for _, v := range s.Val {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Scale multiplies all values in place and returns the receiver.
func (s SparseVec) Scale(f float64) SparseVec {
	for k := range s.Val {
		s.Val[k] *= f
	}
	return s
}

// CountVector returns the raw term-count vector of a tokenised document
// under the vocabulary. Unknown terms are dropped. It sorts the known
// terms' feature indices and counts each run.
func (v *Vocab) CountVector(doc []string) SparseVec {
	idx := make([]int, 0, len(doc))
	for _, term := range doc {
		if i, ok := v.index[term]; ok {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	val := make([]float64, 0, len(idx))
	for k := 0; k < len(idx); {
		run := k + 1
		for run < len(idx) && idx[run] == idx[k] {
			run++
		}
		idx[len(val)] = idx[k]
		val = append(val, float64(run-k))
		k = run
	}
	return SparseVec{Idx: idx[:len(val)], Val: val}
}

// TFIDFVector returns the L2-normalised TF-IDF vector of a tokenised
// document under the vocabulary.
func (v *Vocab) TFIDFVector(doc []string) SparseVec {
	vec := v.CountVector(doc)
	for k, idx := range vec.Idx {
		vec.Val[k] *= v.IDF(idx)
	}
	if n := vec.L2Norm(); n > 0 {
		vec.Scale(1 / n)
	}
	return vec
}

// TopTerms returns the n terms with the highest document frequency,
// useful for inspecting what the vocabulary learned.
func (v *Vocab) TopTerms(n int) []string {
	order := make([]int, len(v.terms))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if v.df[order[a]] != v.df[order[b]] {
			return v.df[order[a]] > v.df[order[b]]
		}
		return v.terms[order[a]] < v.terms[order[b]]
	})
	if n > len(order) {
		n = len(order)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = v.terms[order[i]]
	}
	return out
}

// CountOccurrences returns how many of the needles occur in the
// lowercased haystack as substrings. The heuristics of §4.1 count
// keyword occurrences in headings this way.
func CountOccurrences(haystack string, needles []string) int {
	h := strings.ToLower(haystack)
	n := 0
	for _, needle := range needles {
		if strings.Contains(h, needle) {
			n++
		}
	}
	return n
}

// CountRune returns the number of occurrences of r in s (e.g. counting
// question marks in headings to spot info-requesting threads).
func CountRune(s string, r rune) int {
	n := 0
	for _, c := range s {
		if c == r {
			n++
		}
	}
	return n
}
