// Package topclass implements §4.1's hybrid classifier for Threads
// Offering Packs (TOPs): a Linear-SVM over statistical + NLP features
// combined (by union) with keyword heuristics. "If either method
// classifies a thread as offering packs, this is included in our
// pipeline to extract links."
package topclass

import (
	"errors"
	"math"
	"strings"

	"repro/internal/forum"
	"repro/internal/ml"
	"repro/internal/textproc"
	"repro/internal/urlx"
)

// Table 2 keyword sets.
var (
	// EWhoringKeywords select eWhoring-related threads by heading.
	EWhoringKeywords = []string{"ewhor", "e-whor"}
	// TOPKeywords mark threads offering packs.
	TOPKeywords = []string{
		"pack", "packs", "package", "packages", "pics", "pictures",
		"videos", "vids", "video", "collection", "collections", "set",
		"sets", "repository", "repositories", "selling", "wts",
		"offering", "free", "unsaturated", "new", "giving",
		"compilation", "private", "girl", "girls", "sexy",
	}
	// InfoRequestKeywords mark threads asking for packs or help.
	InfoRequestKeywords = []string{
		"[question]", "[help]", "need advice", "need", "needed", "wtb",
		"want to buy", "req", "request", "question", "looking for",
		"give me advice", "quick question", "question for",
		"i wonder whether", "i wonder if", "im asking for",
		"general query", "general question", "i have a question",
		"i have a doubt", "help requested", "how to", "help please",
		"help with", "need help", "need a", "need some help",
		"help needed", "i want help", "help me", "seeking",
	}
	// TutorialKeywords mark guide threads.
	TutorialKeywords = []string{
		"tutorial", "[tut]", "howto", "how-to", "definite guide", "guide",
	}
	// EarningsKeywords select posts sharing earnings.
	EarningsKeywords = []string{"earn", "profit", "money", "gain"}
)

// Labeled pairs a thread with its annotation.
type Labeled struct {
	Thread forum.ThreadID
	IsTOP  bool
}

// numStatFeatures is the count of non-NLP features; TF-IDF terms are
// appended after them.
const numStatFeatures = 8

// Extractor turns threads into feature vectors: "for each thread it
// extracts: the number of replies; the number of links to cloud
// storage and image sharing sites, and number of links to other
// threads in the forum; the length of the first post; and a set of
// features extracted from the text using NLP", plus the special
// keyword counts.
type Extractor struct {
	store     *forum.Store
	whitelist *urlx.Whitelist
	vocab     *textproc.Vocab
}

// NewExtractor builds an extractor over a store and hosting
// whitelist.
func NewExtractor(store *forum.Store, wl *urlx.Whitelist) *Extractor {
	return &Extractor{store: store, whitelist: wl, vocab: textproc.NewVocab()}
}

// threadText returns the heading and first-post text of a thread.
func (e *Extractor) threadText(tid forum.ThreadID) (string, string) {
	th := e.store.Thread(tid)
	return th.Heading, e.store.FirstPost(tid).Body
}

// tokens returns the filtered tokens of a thread's heading and first
// post: the text both Fit and Vector read.
func (e *Extractor) tokens(tid forum.ThreadID) []string {
	h, b := e.threadText(tid)
	return textproc.TokenizeFiltered(h + " " + b)
}

// Fit learns the TF-IDF vocabulary from the given threads' headings
// and first posts. Call before Vector.
func (e *Extractor) Fit(threads []forum.ThreadID) {
	e.fit(threads)
}

// fit is Fit returning each thread's tokens, so a caller that goes on
// to vectorize the same threads need not tokenize them again.
func (e *Extractor) fit(threads []forum.ThreadID) [][]string {
	docs := make([][]string, len(threads))
	for i, tid := range threads {
		docs[i] = e.tokens(tid)
	}
	e.vocab.Fit(docs)
	return docs
}

// Dim returns the feature-space dimensionality (stat features + vocab).
func (e *Extractor) Dim() int { return numStatFeatures + e.vocab.Size() }

// Vector extracts the feature vector of one thread.
func (e *Extractor) Vector(tid forum.ThreadID) ml.SparseVec {
	return e.vector(tid, e.tokens(tid))
}

// vector is Vector over the thread's already-computed tokens.
func (e *Extractor) vector(tid forum.ThreadID, tokens []string) ml.SparseVec {
	heading, body := e.threadText(tid)
	lower := strings.ToLower(heading)

	links := e.whitelist.ClassifyAll(urlx.Extract(body))
	cloud, img := 0, 0
	for _, l := range links {
		switch l.Kind {
		case urlx.KindCloudStorage:
			cloud++
		case urlx.KindImageSharing:
			img++
		}
	}
	threadLinks := strings.Count(body, "showthread.php")

	stat := [numStatFeatures]float64{
		math.Log1p(float64(e.store.NumReplies(tid))) / 4,
		float64(cloud) / 3,
		float64(img) / 5,
		float64(threadLinks) / 3,
		math.Log1p(float64(len(body))) / 8,
		float64(textproc.CountRune(heading, '?')),
		float64(textproc.CountOccurrences(lower, InfoRequestKeywords)) / 3,
		float64(textproc.CountOccurrences(lower, TutorialKeywords)) / 2,
	}
	tfidf := e.vocab.TFIDFVector(tokens)

	idx := make([]int, 0, numStatFeatures+len(tfidf.Idx))
	val := make([]float64, 0, numStatFeatures+len(tfidf.Val))
	for i, v := range stat {
		if v != 0 {
			idx = append(idx, i)
			val = append(val, v)
		}
	}
	for k, i := range tfidf.Idx {
		idx = append(idx, numStatFeatures+i)
		val = append(val, tfidf.Val[k])
	}
	return ml.SparseVec{Idx: idx, Val: val}
}

// Heuristic is the expert-rule side of the hybrid classifier:
// "for each thread we account for keywords frequently observed in TOP
// headings such as 'images', 'video' or 'unsaturated' ... we also
// account for both the number of question marks and the presence of
// keywords related to buying to discard threads asking for packs."
func Heuristic(store *forum.Store, tid forum.ThreadID) bool {
	heading := strings.ToLower(store.Thread(tid).Heading)
	topHits := textproc.CountOccurrences(heading, TOPKeywords)
	if topHits < 2 {
		return false
	}
	if textproc.CountRune(heading, '?') > 0 {
		return false
	}
	buyish := []string{"wtb", "want to buy", "looking for", "request", "req",
		"need", "question", "help", "how to", "advice", "seeking", "wonder"}
	if textproc.CountOccurrences(heading, buyish) > 0 {
		return false
	}
	if textproc.CountOccurrences(heading, TutorialKeywords) > 0 {
		return false
	}
	// Meta-discussion markers: threads talking about packs rather
	// than offering them.
	meta := []string{"discussion", "opinion", "rant", "thoughts",
		"debate", "dead", "state of"}
	if textproc.CountOccurrences(heading, meta) > 0 {
		return false
	}
	return true
}

// Hybrid is the trained classifier.
type Hybrid struct {
	Extractor *Extractor
	SVM       *ml.SVM

	// annotated holds the feature vectors of the annotated sample
	// (train and test), computed once in Train. Every other thread is
	// vectorized when classified, so the map never outgrows the
	// annotation budget whatever the corpus size.
	annotated map[forum.ThreadID]ml.SparseVec
}

// Train fits the hybrid classifier's ML side on annotated threads
// (the paper uses 800 of 1 000). It also featurizes the held-out
// test threads, reading none of their labels, so that Evaluate and
// Extract reuse the vectors instead of recomputing them.
func Train(store *forum.Store, wl *urlx.Whitelist, train, test []Labeled, cfg ml.SVMConfig) (*Hybrid, error) {
	if len(train) == 0 {
		return nil, errors.New("topclass: empty training set")
	}
	ex := NewExtractor(store, wl)
	tids := make([]forum.ThreadID, len(train))
	for i, l := range train {
		tids[i] = l.Thread
	}
	docs := ex.fit(tids)
	annotated := make(map[forum.ThreadID]ml.SparseVec, len(train)+len(test))
	examples := make([]ml.Example, len(train))
	for i, l := range train {
		x := ex.vector(l.Thread, docs[i])
		annotated[l.Thread] = x
		examples[i] = ml.Example{X: x, Y: l.IsTOP}
	}
	svm, err := ml.TrainSVM(examples, ex.Dim(), cfg)
	if err != nil {
		return nil, err
	}
	for _, l := range test {
		annotated[l.Thread] = ex.Vector(l.Thread)
	}
	return &Hybrid{Extractor: ex, SVM: svm, annotated: annotated}, nil
}

// vector returns a thread's feature vector: the one Train kept for an
// annotated thread, a fresh one for any other.
func (h *Hybrid) vector(tid forum.ThreadID) ml.SparseVec {
	if x, ok := h.annotated[tid]; ok {
		return x
	}
	return h.Extractor.Vector(tid)
}

// Vote is the decision breakdown for one thread.
type Vote struct {
	ML        bool
	Heuristic bool
}

// IsTOP reports the union decision.
func (v Vote) IsTOP() bool { return v.ML || v.Heuristic }

// Classify returns both methods' votes for a thread.
func (h *Hybrid) Classify(tid forum.ThreadID) Vote {
	return Vote{
		ML:        h.SVM.Predict(h.vector(tid)),
		Heuristic: Heuristic(h.Extractor.store, tid),
	}
}

// Evaluate scores the hybrid (union) decision on a labelled test set,
// as the paper evaluates (precision 92%, recall 93%, F1 92%).
func (h *Hybrid) Evaluate(test []Labeled) ml.Metrics {
	var m ml.Metrics
	for _, l := range test {
		m.Observe(h.Classify(l.Thread).IsTOP(), l.IsTOP)
	}
	return m
}

// ExtractResult summarises a corpus sweep.
type ExtractResult struct {
	TOPs      []forum.ThreadID
	MLCount   int
	HeurCount int
	BothCount int
}

// Extract sweeps threads and returns every thread either method
// classifies as a TOP, with the paper's method-overlap counts (ML
// 3 456, heuristics 2 676, both 1 995).
func (h *Hybrid) Extract(threads []forum.ThreadID) ExtractResult {
	var res ExtractResult
	for _, tid := range threads {
		v := h.Classify(tid)
		if v.ML {
			res.MLCount++
		}
		if v.Heuristic {
			res.HeurCount++
		}
		if v.ML && v.Heuristic {
			res.BothCount++
		}
		if v.IsTOP() {
			res.TOPs = append(res.TOPs, tid)
		}
	}
	return res
}
