package synth

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/forum"
	"repro/internal/randx"
)

// forumState carries per-forum generation context.
type forumState struct {
	spec    forumSpec
	id      forum.ForumID
	isHF    bool
	rng     *randx.Rand
	actors  []forum.ActorID
	zipf    *randx.Zipf
	ewBoard forum.BoardID
	// ewCount tracks eWhoring posts per actor (drives other-board
	// volume and exchange-thread eligibility).
	ewCount map[forum.ActorID]int
	// monthBuckets index actors by the months their eWhoring window
	// covers, with parallel cumulative Zipf weights, so reply authors
	// can be sampled heavy-tailed AND time-consistent.
	monthBuckets map[int][]int
	bucketCum    map[int][]float64
	// hostThreads: per-board rolling background threads for
	// other-board posts.
	hostThreads map[forum.BoardID]forum.ThreadID
	hostReplies map[forum.ThreadID]int
}

// genForums builds every forum of Table 1.
func (w *World) genForums(rng *randx.Rand) {
	// Flagged models are distributed across free TOPs as they are
	// generated; build the queue once.
	var flaggedQueue []int
	for i, m := range w.Models {
		if m.Flagged >= 0 {
			flaggedQueue = append(flaggedQueue, i)
		}
	}
	w.flaggedQueue = flaggedQueue

	for _, spec := range paperForums {
		w.genForum(rng.SplitLabeled(spec.Name), spec)
	}
}

// genForum builds one forum: boards, actors, eWhoring threads,
// other-board activity and (for Hackforums) the Currency Exchange and
// Bragging Rights boards.
func (w *World) genForum(rng *randx.Rand, spec forumSpec) {
	st := &forumState{
		spec:        spec,
		rng:         rng,
		isHF:        spec.Name == "Hackforums",
		ewCount:     make(map[forum.ActorID]int),
		hostThreads: make(map[forum.BoardID]forum.ThreadID),
		hostReplies: make(map[forum.ThreadID]int),
	}
	st.id = w.Store.AddForum(spec.Name)
	w.Forums = append(w.Forums, st.id)

	var catBoards []forum.BoardID
	if st.isHF {
		w.HF = st.id
		st.ewBoard = w.Store.AddBoard(st.id, "eWhoring", "Money")
		w.HFEWhoring = st.ewBoard
		w.HFCurrency = w.Store.AddBoard(st.id, "Currency Exchange", "Market")
		w.HFBragging = w.Store.AddBoard(st.id, "Bragging Rights", "Money")
		w.HFLounge = w.Store.AddBoard(st.id, "The Lounge", "Lounge")
		for _, cat := range hfCategories {
			catBoards = append(catBoards, w.Store.AddBoard(st.id, cat+" Central", cat))
		}
	} else {
		st.ewBoard = w.Store.AddBoard(st.id, "General", "Common")
		catBoards = []forum.BoardID{st.ewBoard}
	}

	// Actor pool with activity windows.
	nActors := w.Config.scaled(spec.Actors, 25)
	start := spec.FirstPost
	spanDays := int(datasetEnd.Sub(start).Hours() / 24)
	if spanDays < 60 {
		spanDays = 60
	}
	for i := 0; i < nActors; i++ {
		// Registrations skew towards later years (the forums grew over
		// the decade), which also tilts aggregate proof-platform
		// counts towards Amazon Gift Cards, as in Figure 3.
		regOffset := int(float64(spanDays) * math.Sqrt(rng.Float64()))
		reg := start.AddDate(0, 0, regOffset-30)
		ew0 := reg.AddDate(0, 0, int(rng.Exp(120)))
		if ew0.Before(start) {
			ew0 = start.AddDate(0, 0, rng.Intn(30))
		}
		if ew0.After(datasetEnd) {
			ew0 = datasetEnd.AddDate(0, 0, -rng.Intn(200)-1)
		}
		// Clamping can push the eWhoring start before registration for
		// late registrants; registration always precedes activity.
		if ew0.Before(reg) {
			reg = ew0.AddDate(0, 0, -rng.Intn(60)-1)
		}
		a := w.Store.AddActor(st.id, fmt.Sprintf("%s_user%05d", strings.ToLower(spec.Name[:2]), i), reg)
		ew1 := ew0.AddDate(0, 0, 30+int(rng.Exp(220)))
		if ew1.After(datasetEnd) {
			ew1 = datasetEnd
		}
		firstAct := ew0.AddDate(0, 0, -int(rng.Exp(165)))
		if firstAct.Before(reg) {
			firstAct = reg
		}
		// Heavier eWhoring careers (longer windows) taper off sooner
		// after — Table 8's after-days fall from 474 to ~140 across
		// buckets.
		windowDays := ew1.Sub(ew0).Hours() / 24
		afterMean := 480 * 180 / (windowDays + 180)
		lastAct := ew1.AddDate(0, 0, int(rng.Exp(afterMean)))
		if lastAct.After(datasetEnd) {
			lastAct = datasetEnd
		}
		st.actors = append(st.actors, a)
		w.Actors[a] = &ActorTruth{
			ID: a, Registered: reg,
			EwStart: ew0, EwEnd: ew1,
			FirstActivity: firstAct, LastActivity: lastAct,
		}
	}
	st.zipf = randx.NewZipf(rng, len(st.actors), 1.02)
	st.buildMonthBuckets(w)

	// eWhoring threads.
	nThreads := w.Config.scaled(spec.Threads, 4)
	nPosts := w.Config.scaled(spec.Posts, nThreads*2)
	meanReplies := float64(nPosts)/float64(nThreads) - 1
	if meanReplies < 1 {
		meanReplies = 1
	}
	topsLeft := w.Config.scaled(spec.TOPs, 0)
	if spec.TOPs > 0 && topsLeft == 0 {
		topsLeft = 1
	}
	for t := 0; t < nThreads; t++ {
		kind := st.pickKind(t, nThreads, &topsLeft)
		w.genEWThread(st, kind, meanReplies)
	}

	// Other-board activity: full interest profiles on Hackforums,
	// light General-board activity elsewhere (enough to measure days
	// before/after eWhoring).
	w.genOtherActivity(st, catBoards)

	if st.isHF {
		w.genExchange(st)
	}
}

// pickKind decides a thread's kind, honouring the forum's TOP quota.
func (st *forumState) pickKind(t, total int, topsLeft *int) ThreadKind {
	remaining := total - t
	if *topsLeft > 0 && st.rng.Float64() < float64(*topsLeft)/float64(remaining) {
		*topsLeft--
		return KindTOP
	}
	switch {
	case st.rng.Bool(0.30):
		return KindRequest
	case st.rng.Bool(0.07):
		return KindTutorial
	case st.rng.Bool(0.028):
		return KindEarnings
	default:
		return KindDiscussion
	}
}

// genEWThread creates one eWhoring-related thread of the given kind.
func (w *World) genEWThread(st *forumState, kind ThreadKind, meanReplies float64) {
	rng := st.rng
	starter := st.actors[st.zipf.Next()]
	at := w.Actors[starter]
	span := int(at.EwEnd.Sub(at.EwStart).Hours() / 24)
	if span < 1 {
		span = 1
	}
	created := at.EwStart.AddDate(0, 0, rng.Intn(span))
	if created.Before(st.spec.FirstPost) {
		created = st.spec.FirstPost
	}
	if created.After(datasetEnd) {
		created = datasetEnd
	}

	var heading, body string
	truth := &ThreadTruth{Kind: kind}
	board := st.ewBoard
	replyScale := 1.0
	switch kind {
	case KindTOP:
		if rng.Bool(0.12) {
			// Some sharers avoid the obvious keywords — the hybrid
			// classifier's misses come from these.
			heading = randx.Pick(rng, topAmbiguousHeadings)
		} else {
			heading = fillHeading(rng, randx.Pick(rng, topHeadings))
		}
		var top *TOPTruth
		body, top = w.genTOPContent(st, created)
		truth.TOP = top
		replyScale = 1.7
	case KindRequest:
		heading = fillHeading(rng, randx.Pick(rng, requestHeadings))
		body = fillBody(rng, randx.Pick(rng, requestBodies))
		replyScale = 0.55
	case KindTutorial:
		heading = fillHeading(rng, randx.Pick(rng, tutorialHeadings))
		body = fillBody(rng, randx.Pick(rng, tutorialBodies))
		replyScale = 1.4
	case KindEarnings:
		heading = fillHeading(rng, randx.Pick(rng, earningsHeadings))
		if st.isHF && rng.Bool(0.5) {
			board = w.HFBragging
			if !strings.Contains(strings.ToLower(heading), "ewhor") {
				heading += " - ewhoring"
			}
		}
		body = fmt.Sprintf(randx.Pick(rng, earningsBodies), w.genProofLink(st, starter, created, nil))
		replyScale = 1.2
	default:
		if rng.Bool(0.15) {
			// Discussions that talk packs without offering any — the
			// classifier's false positives come from these.
			heading = fillHeading(rng, randx.Pick(rng, discussionPackyHeadings))
		} else {
			heading = fillHeading(rng, randx.Pick(rng, discussionHeadings))
		}
		body = fillBody(rng, randx.Pick(rng, discussionBodies))
	}
	// Non-Hackforums threads were selected by heading keyword; make
	// sure the heading carries it.
	if st.spec.KeywordHeadings && !strings.Contains(strings.ToLower(heading), "ewhor") {
		if rng.Bool(0.5) {
			heading = "ewhoring: " + heading
		} else {
			heading += " (e-whoring)"
		}
	}

	tid := w.Store.AddThread(board, starter, heading, body, created)
	w.Truth[tid] = truth
	w.EWhoring[st.id] = append(w.EWhoring[st.id], tid)
	st.ewCount[starter]++

	// Replies.
	nReplies := int(rng.LogNormal(0, 1.0) * meanReplies * replyScale)
	if nReplies > 2500 {
		nReplies = 2500
	}
	tm := created
	var postIDs []forum.PostID
	postIDs = append(postIDs, w.Store.FirstPost(tid).ID)
	for r := 0; r < nReplies; r++ {
		tm = tm.Add(time.Duration(rng.Exp(30)*float64(time.Hour)) + time.Minute)
		if tm.After(datasetEnd) {
			tm = datasetEnd
		}
		author := st.pickAuthor(w, tm)
		var quotes forum.PostID
		if rng.Bool(0.25) {
			quotes = postIDs[rng.Intn(len(postIDs))]
		}
		body := replyBody(rng, kind, truth)
		// Earnings threads accumulate proof posts from participants.
		if kind == KindEarnings && rng.Bool(0.22) {
			body = "my proof: " + w.genProofLink(st, author, tm, nil) + " earn while you sleep"
		}
		pid := w.Store.AddReply(tid, author, body, tm, quotes)
		postIDs = append(postIDs, pid)
		st.ewCount[author]++
	}
	// Record proof posts that referenced this thread retroactively
	// (genProofLink stores thread 0 until now).
	w.fixupProofThreads(tid, postIDs)
}

func monthIndex(t time.Time) int {
	return t.Year()*12 + int(t.Month()) - 1
}

// buildMonthBuckets indexes actors by the months their eWhoring
// window covers, precomputing cumulative Zipf weights per bucket.
func (st *forumState) buildMonthBuckets(w *World) {
	st.monthBuckets = make(map[int][]int)
	for i, a := range st.actors {
		at := w.Actors[a]
		for m := monthIndex(at.EwStart); m <= monthIndex(at.EwEnd); m++ {
			st.monthBuckets[m] = append(st.monthBuckets[m], i)
		}
	}
	st.bucketCum = make(map[int][]float64, len(st.monthBuckets))
	for m, idxs := range st.monthBuckets {
		cum := make([]float64, len(idxs))
		sum := 0.0
		for k, i := range idxs {
			sum += 1 / math.Pow(float64(i+1), 1.02)
			cum[k] = sum
		}
		st.bucketCum[m] = cum
	}
}

// pickAuthor samples a reply author whose eWhoring window covers the
// post time, heavy-tailed by the actor's Zipf rank — otherwise the
// most active actors' eWhoring spans would swallow the whole dataset
// and the before / during / after analyses of §6 would degenerate.
func (st *forumState) pickAuthor(w *World, tm time.Time) forum.ActorID {
	bucket := st.monthBuckets[monthIndex(tm)]
	if len(bucket) == 0 {
		return st.actors[st.zipf.Next()]
	}
	cum := st.bucketCum[monthIndex(tm)]
	x := st.rng.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return st.actors[bucket[lo]]
}

// replyBody picks a reply body; flagged TOPs occasionally attract the
// paper's age-concern replies.
func replyBody(rng *randx.Rand, kind ThreadKind, truth *ThreadTruth) string {
	if kind == KindTOP && truth.TOP != nil && truth.TOP.Flagged && rng.Bool(0.08) {
		return randx.Pick(rng, ageConcernReplies)
	}
	return randx.Pick(rng, replyBodies)
}

// fillBody instantiates a body template that may contain one %s
// (model name).
func fillBody(rng *randx.Rand, tmpl string) string {
	if strings.Contains(tmpl, "%s") {
		return fmt.Sprintf(tmpl, randx.Pick(rng, modelNames))
	}
	return tmpl
}

// genOtherActivity generates non-eWhoring posts so that actors have
// measurable activity before and after their eWhoring phase, and (on
// Hackforums) interest profiles across board categories.
func (w *World) genOtherActivity(st *forumState, catBoards []forum.BoardID) {
	rng := st.rng
	byCat := make(map[string]forum.BoardID)
	for _, b := range catBoards {
		byCat[w.Store.Board(b).Category] = b
	}
	for _, a := range st.actors {
		ew := st.ewCount[a]
		if ew == 0 {
			continue
		}
		at := w.Actors[a]
		pct := 0.12 + 0.25*rng.Float64()
		other := int(float64(ew) * (1 - pct) / pct)
		if other > 600 {
			other = 600
		}
		if other < 1 {
			other = 1
		}
		if !st.isHF {
			// Light activity: a couple of posts before and after.
			if other > 4 {
				other = 4
			}
		}
		for i := 0; i < other; i++ {
			phase := rng.Float64()
			var t0, t1 time.Time
			var mix []float64
			switch {
			case phase < 0.40:
				t0, t1, mix = at.FirstActivity, at.EwStart, weightsBefore
			case phase < 0.75:
				t0, t1, mix = at.EwStart, at.EwEnd, weightsDuring
			default:
				t0, t1, mix = at.EwEnd, at.LastActivity, weightsAfter
			}
			span := int(t1.Sub(t0).Hours() / 24)
			if span < 1 {
				span = 1
			}
			tm := t0.AddDate(0, 0, rng.Intn(span))
			var board forum.BoardID
			if st.isHF && rng.Bool(0.10) {
				board = w.HFLounge // excluded from interest analysis
			} else if st.isHF {
				board = byCat[hfCategories[rng.WeightedPick(mix)]]
			} else {
				board = st.ewBoard
			}
			if board == 0 {
				board = catBoards[0]
			}
			w.postBackground(st, board, a, tm)
		}
	}
}

// postBackground appends a post to the rolling host thread of a
// board, starting a new host thread every 50 replies. Background
// posts never mention eWhoring in headings (they must not leak into
// the keyword selection).
func (w *World) postBackground(st *forumState, board forum.BoardID, a forum.ActorID, tm time.Time) {
	tid, ok := st.hostThreads[board]
	if !ok || st.hostReplies[tid] >= 50 {
		heading := fmt.Sprintf("%s general discussion #%d",
			w.Store.Board(board).Category, len(st.hostReplies)+1)
		tid = w.Store.AddThread(board, a, heading, "welcome to the thread", tm)
		w.Truth[tid] = &ThreadTruth{Kind: KindBackground}
		st.hostThreads[board] = tid
		st.hostReplies[tid] = 0
		return
	}
	bodies := []string{
		"nice one", "agreed", "anyone tried this?", "lol", "interesting topic",
		"posting to follow", "good point", "what build do you use?",
	}
	w.Store.AddReply(tid, a, randx.Pick(st.rng, bodies), tm, 0)
	st.hostReplies[tid]++
}
