package synth

import (
	"strings"
	"testing"

	"repro/internal/earnings"
	"repro/internal/forum"
	"repro/internal/urlx"
)

// testWorld generates a small world once and shares it across tests.
var testW = Generate(Config{Seed: 7, Scale: 0.02, ImageSize: 48})

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Seed: 7, Scale: 0.01})
	b := Generate(Config{Seed: 7, Scale: 0.01})
	if a.Store.NumThreads() != b.Store.NumThreads() ||
		a.Store.NumPosts() != b.Store.NumPosts() ||
		a.Store.NumActors() != b.Store.NumActors() {
		t.Fatalf("same seed differs: %d/%d/%d vs %d/%d/%d",
			a.Store.NumThreads(), a.Store.NumPosts(), a.Store.NumActors(),
			b.Store.NumThreads(), b.Store.NumPosts(), b.Store.NumActors())
	}
	// Spot-check content equality.
	if a.Store.Thread(1).Heading != b.Store.Thread(1).Heading {
		t.Fatal("thread 1 heading differs")
	}
	if len(a.Proofs) != len(b.Proofs) {
		t.Fatal("proof counts differ")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := Generate(Config{Seed: 7, Scale: 0.01})
	b := Generate(Config{Seed: 8, Scale: 0.01})
	if a.Store.Thread(1).Heading == b.Store.Thread(1).Heading &&
		a.Store.NumPosts() == b.Store.NumPosts() {
		t.Fatal("different seeds produced identical worlds")
	}
}

func TestForumRoster(t *testing.T) {
	if got := testW.Store.NumForums(); got != 10 {
		t.Fatalf("NumForums = %d want 10", got)
	}
	for _, name := range []string{"Hackforums", "OGUsers", "BlackHatWorld"} {
		if _, ok := testW.Store.ForumByName(name); !ok {
			t.Errorf("missing forum %s", name)
		}
	}
}

func TestScaledCounts(t *testing.T) {
	// At scale 0.02 expect roughly 0.02x Table 1 totals (44 520
	// threads → ~890; tolerant bounds, the generator is stochastic).
	ew := testW.EWhoringAll()
	if len(ew) < 500 || len(ew) > 1600 {
		t.Errorf("eWhoring threads = %d, want ≈890", len(ew))
	}
	// eWhoring posts ≈ 626k * 0.02 = 12.5k. Count posts in eWhoring
	// threads.
	posts := 0
	for _, tid := range ew {
		for range testW.Store.PostsInThread(tid) {
			posts++
		}
	}
	if posts < 5000 || posts > 30000 {
		t.Errorf("eWhoring posts = %d, want ≈12.5k", posts)
	}
}

func TestTOPQuotas(t *testing.T) {
	// TOPs ≈ 4137*0.02 ≈ 83, and BlackHatWorld must have none.
	total := 0
	bhw, _ := testW.Store.ForumByName("BlackHatWorld")
	for _, tid := range testW.EWhoringAll() {
		tr := testW.Truth[tid]
		if tr == nil || tr.Kind != KindTOP {
			continue
		}
		total++
		if testW.Store.Thread(tid).Forum == bhw.ID {
			t.Errorf("BlackHatWorld has a TOP (thread %d)", tid)
		}
	}
	if total < 40 || total > 160 {
		t.Errorf("TOPs = %d, want ≈83", total)
	}
}

func TestKeywordSelectionMatchesGroundTruth(t *testing.T) {
	// The paper's selection (heading keywords + the HF eWhoring
	// board) must recover exactly the ground-truth eWhoring set.
	selected := testW.Store.SearchHeadings("ewhor", "e-whor")
	set := map[int]bool{}
	for _, tid := range selected {
		set[int(tid)] = true
	}
	for _, tid := range testW.Store.ThreadsInBoard(testW.HFEWhoring) {
		set[int(tid)] = true
	}
	truth := map[int]bool{}
	for _, tid := range testW.EWhoringAll() {
		truth[int(tid)] = true
	}
	for tid := range truth {
		if !set[tid] {
			t.Fatalf("ground-truth eWhoring thread %d not selectable", tid)
		}
	}
	for tid := range set {
		if !truth[tid] {
			t.Fatalf("selection includes non-eWhoring thread %d (%q)",
				tid, testW.Store.Thread(forum.ThreadID(tid)).Heading)
		}
	}
}

func TestTOPLinksResolvable(t *testing.T) {
	free, withLinks := 0, 0
	for _, tid := range testW.EWhoringAll() {
		tr := testW.Truth[tid]
		if tr == nil || tr.Kind != KindTOP {
			continue
		}
		if tr.TOP.Free {
			free++
			if len(tr.TOP.PackURLs) > 0 {
				withLinks++
			}
			for _, u := range tr.TOP.PackURLs {
				d := urlx.Domain(u)
				if _, ok := testW.Web.Site(d); !ok {
					t.Fatalf("pack URL %s points at unregistered site", u)
				}
			}
		}
		// Links must appear in the first post body.
		body := testW.Store.FirstPost(tid).Body
		for _, u := range append(tr.TOP.PreviewURLs, tr.TOP.PackURLs...) {
			if !strings.Contains(body, u) {
				t.Fatalf("TOP %d body missing link %s", tid, u)
			}
		}
	}
	if free == 0 || withLinks == 0 {
		t.Fatalf("no free TOPs with pack links (free=%d)", free)
	}
}

func TestFlaggedPacksExist(t *testing.T) {
	if testW.NumFlaggedTOPs == 0 {
		t.Fatal("no TOP carries hashlisted material; the PhotoDNA path is dead")
	}
	if testW.HashList.Len() == 0 {
		t.Fatal("hashlist empty")
	}
}

func TestProofsGenerated(t *testing.T) {
	if len(testW.Proofs) == 0 {
		t.Fatal("no proof links generated")
	}
	kinds := map[ProofKind]int{}
	platforms := map[earnings.Platform]int{}
	for _, p := range testW.Proofs {
		kinds[p.Kind]++
		if p.Thread == 0 {
			t.Fatal("proof with unset thread")
		}
		if p.Kind == ProofEarnings {
			platforms[p.Truth.Platform]++
			if p.Truth.Total <= 0 {
				t.Fatalf("proof with non-positive total: %+v", p.Truth)
			}
		}
	}
	if kinds[ProofEarnings] == 0 || kinds[ProofDead] == 0 {
		t.Fatalf("proof kind mix degenerate: %v", kinds)
	}
	if platforms[earnings.PlatformPayPal] == 0 || platforms[earnings.PlatformAGC] == 0 {
		t.Fatalf("platform mix degenerate: %v", platforms)
	}
}

func TestPlatformShiftOverTime(t *testing.T) {
	// Figure 3: PayPal dominates before 2014, AGC after 2016.
	w := Generate(Config{Seed: 99, Scale: 0.05})
	early := map[earnings.Platform]int{}
	late := map[earnings.Platform]int{}
	for _, p := range w.Proofs {
		if p.Kind != ProofEarnings {
			continue
		}
		if p.Date.Year() < 2014 {
			early[p.Truth.Platform]++
		} else if p.Date.Year() >= 2017 {
			late[p.Truth.Platform]++
		}
	}
	if early[earnings.PlatformPayPal] <= early[earnings.PlatformAGC] {
		t.Errorf("early era: PayPal %d <= AGC %d", early[earnings.PlatformPayPal], early[earnings.PlatformAGC])
	}
	if late[earnings.PlatformAGC] <= late[earnings.PlatformPayPal] {
		t.Errorf("late era: AGC %d <= PayPal %d", late[earnings.PlatformAGC], late[earnings.PlatformPayPal])
	}
}

func TestExchangeBoardFormat(t *testing.T) {
	threads := testW.Store.ThreadsInBoard(testW.HFCurrency)
	if len(threads) == 0 {
		t.Fatal("Currency Exchange board empty")
	}
	parsed := 0
	for _, tid := range threads {
		h := testW.Store.Thread(tid).Heading
		if strings.Contains(strings.ToLower(h), "ewhor") {
			t.Fatalf("exchange heading leaks eWhoring keyword: %q", h)
		}
		if _, ok := earnings.ParseExchangeHeading(h); ok {
			parsed++
		}
	}
	if parsed < len(threads)*9/10 {
		t.Fatalf("only %d/%d exchange headings parse", parsed, len(threads))
	}
}

func TestActorTruthWindows(t *testing.T) {
	checked := 0
	for _, at := range testW.Actors {
		if at.EwEnd.Before(at.EwStart) {
			t.Fatalf("actor %d: EwEnd before EwStart", at.ID)
		}
		if at.FirstActivity.After(at.EwStart) || at.LastActivity.Before(at.EwEnd) {
			t.Fatalf("actor %d: activity window does not contain eWhoring window", at.ID)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no actors")
	}
}

func TestAnnotationSample(t *testing.T) {
	sample := testW.AnnotationSample(200, 1)
	if len(sample) != 200 {
		t.Fatalf("sample size %d", len(sample))
	}
	tops := 0
	seen := map[int]bool{}
	for _, lt := range sample {
		if seen[int(lt.Thread)] {
			t.Fatal("duplicate thread in sample")
		}
		seen[int(lt.Thread)] = true
		truth := testW.Truth[lt.Thread]
		if lt.IsTOP != (truth != nil && truth.Kind == KindTOP) {
			t.Fatalf("label mismatch for thread %d", lt.Thread)
		}
		if lt.IsTOP {
			tops++
		}
	}
	// ~17.5% TOPs (paper: 175 of 1 000).
	if tops < 20 || tops > 50 {
		t.Errorf("sample TOPs = %d/200, want ≈35", tops)
	}
	// Deterministic.
	again := testW.AnnotationSample(200, 1)
	for i := range sample {
		if sample[i] != again[i] {
			t.Fatal("AnnotationSample not deterministic")
		}
	}
}

func TestReverseIndexPopulated(t *testing.T) {
	if testW.Reverse.Len() == 0 {
		t.Fatal("reverse index empty")
	}
	if testW.Wayback.NumURLs() == 0 {
		t.Fatal("wayback archive empty")
	}
	if testW.Directory.Len() == 0 {
		t.Fatal("domain directory empty")
	}
}

func TestZeroMatchModelsExist(t *testing.T) {
	indexed, private := 0, 0
	for _, m := range testW.Models {
		if m.Indexed {
			indexed++
		} else {
			private++
		}
	}
	if private == 0 || indexed == 0 {
		t.Fatalf("model index mix degenerate: %d indexed, %d private", indexed, private)
	}
}

func TestSkipImages(t *testing.T) {
	w := Generate(Config{Seed: 3, Scale: 0.01, SkipImages: true})
	if len(w.Models) != 0 || w.Reverse.Len() != 0 {
		t.Fatal("SkipImages still generated the image world")
	}
	if w.Store.NumThreads() == 0 {
		t.Fatal("SkipImages dropped the forum corpus")
	}
}

func TestInterestCategoriesPresent(t *testing.T) {
	// Hackforums needs boards for every category plus the special
	// boards.
	cats := map[string]bool{}
	for _, b := range testW.Store.Boards(testW.HF) {
		cats[b.Category] = true
	}
	for _, c := range hfCategories {
		if !cats[c] {
			t.Errorf("missing HF category %s", c)
		}
	}
	if !cats["Lounge"] {
		t.Error("missing The Lounge")
	}
}
