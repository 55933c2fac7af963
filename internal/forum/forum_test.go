package forum

import (
	"fmt"
	"iter"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
)

func day(n int) time.Time {
	return time.Date(2015, time.January, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func buildSmall(t *testing.T) (*Store, ForumID, BoardID, ActorID, ActorID) {
	t.Helper()
	s := NewStore()
	hf := s.AddForum("Hackforums")
	ew := s.AddBoard(hf, "eWhoring", "Money")
	alice := s.AddActor(hf, "alice", day(0))
	bob := s.AddActor(hf, "bob", day(1))
	return s, hf, ew, alice, bob
}

func TestAddForumIdempotent(t *testing.T) {
	s := NewStore()
	a := s.AddForum("HF")
	b := s.AddForum("HF")
	if a != b {
		t.Fatalf("duplicate AddForum returned %d then %d", a, b)
	}
	if s.NumForums() != 1 {
		t.Fatalf("NumForums = %d", s.NumForums())
	}
}

func TestForumByName(t *testing.T) {
	s := NewStore()
	s.AddForum("OGUsers")
	f, ok := s.ForumByName("OGUsers")
	if !ok || f.Name != "OGUsers" {
		t.Fatalf("ForumByName = %+v, %v", f, ok)
	}
	if _, ok := s.ForumByName("nope"); ok {
		t.Fatal("found nonexistent forum")
	}
}

func TestThreadAndReplies(t *testing.T) {
	s, _, ew, alice, bob := buildSmall(t)
	th := s.AddThread(ew, alice, "[WTS] unsaturated pack", "selling pack, pm me", day(2))
	if s.NumReplies(th) != 0 {
		t.Fatalf("fresh thread has %d replies", s.NumReplies(th))
	}
	first := s.FirstPost(th)
	if first.Author != alice || first.Body != "selling pack, pm me" {
		t.Fatalf("FirstPost = %+v", first)
	}
	p2 := s.AddReply(th, bob, "thanks for the share!", day(3), first.ID)
	if s.NumReplies(th) != 1 {
		t.Fatalf("after reply NumReplies = %d", s.NumReplies(th))
	}
	posts := slices.Collect(s.PostsInThread(th))
	if len(posts) != 2 || posts[1].ID != p2 || posts[1].Quotes != first.ID {
		t.Fatalf("PostsInThread = %+v", posts)
	}
}

func TestSearchHeadingsLowercase(t *testing.T) {
	s, _, ew, alice, _ := buildSmall(t)
	a := s.AddThread(ew, alice, "EWHORING guide for beginners", "x", day(2))
	b := s.AddThread(ew, alice, "My E-Whoring earnings", "x", day(3))
	s.AddThread(ew, alice, "Minecraft accounts", "x", day(4))
	got := s.SearchHeadings("ewhor", "e-whor")
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("SearchHeadings = %v", got)
	}
}

func TestSearchHeadingsNoDoubleCount(t *testing.T) {
	s, _, ew, alice, _ := buildSmall(t)
	th := s.AddThread(ew, alice, "ewhoring e-whoring double", "x", day(2))
	got := s.SearchHeadings("ewhor", "e-whor")
	if len(got) != 1 || got[0] != th {
		t.Fatalf("thread matching both keywords counted twice: %v", got)
	}
}

func TestPostsByActorOrder(t *testing.T) {
	s, _, ew, alice, bob := buildSmall(t)
	th := s.AddThread(ew, alice, "t", "p1", day(2))
	s.AddReply(th, bob, "r1", day(3), 0)
	s.AddReply(th, alice, "p2", day(4), 0)
	posts := slices.Collect(s.PostsByActor(alice))
	if len(posts) != 2 || posts[0].Body != "p1" || posts[1].Body != "p2" {
		t.Fatalf("PostsByActor = %+v", posts)
	}
}

func TestActivitySpan(t *testing.T) {
	s, _, ew, alice, bob := buildSmall(t)
	th := s.AddThread(ew, alice, "t", "p1", day(10))
	s.AddReply(th, alice, "p2", day(40), 0)
	first, last, n := s.ActivitySpan(alice)
	if n != 2 || !first.Equal(day(10)) || !last.Equal(day(40)) {
		t.Fatalf("ActivitySpan = %v %v %d", first, last, n)
	}
	if _, _, n := s.ActivitySpan(bob); n != 0 {
		t.Fatalf("ActivitySpan for silent actor counted %d posts", n)
	}
}

func TestStoreSpan(t *testing.T) {
	s, _, ew, alice, _ := buildSmall(t)
	if _, _, ok := s.Span(); ok {
		t.Fatal("Span on empty store returned ok")
	}
	s.AddThread(ew, alice, "t", "p", day(5))
	th2 := s.AddThread(ew, alice, "t2", "p", day(1))
	s.AddReply(th2, alice, "r", day(99), 0)
	first, last, ok := s.Span()
	if !ok || !first.Equal(day(1)) || !last.Equal(day(99)) {
		t.Fatalf("Span = %v %v %v", first, last, ok)
	}
}

func TestBoardsAndCategories(t *testing.T) {
	s := NewStore()
	hf := s.AddForum("HF")
	s.AddBoard(hf, "eWhoring", "Money")
	s.AddBoard(hf, "Currency Exchange", "Market")
	boards := s.Boards(hf)
	if len(boards) != 2 || boards[1].Category != "Market" {
		t.Fatalf("Boards = %+v", boards)
	}
	b, ok := s.BoardByName(hf, "Currency Exchange")
	if !ok || b.Name != "Currency Exchange" {
		t.Fatalf("BoardByName = %+v %v", b, ok)
	}
	if _, ok := s.BoardByName(hf, "nope"); ok {
		t.Fatal("found nonexistent board")
	}
}

func TestThreadsInBoardAndByActor(t *testing.T) {
	s, _, ew, alice, bob := buildSmall(t)
	a := s.AddThread(ew, alice, "a", "x", day(1))
	b := s.AddThread(ew, bob, "b", "x", day(2))
	got := s.ThreadsInBoard(ew)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("ThreadsInBoard = %v", got)
	}
	if ts := s.ThreadsByActor(alice); len(ts) != 1 || ts[0] != a {
		t.Fatalf("ThreadsByActor = %v", ts)
	}
}

func TestPanicsOnUnknownIDs(t *testing.T) {
	s := NewStore()
	cases := []func(){
		func() { s.Forum(1) },
		func() { s.Board(1) },
		func() { s.Thread(1) },
		func() { s.Post(1) },
		func() { s.Actor(1) },
		func() { s.AddBoard(9, "x", "y") },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic for unknown ID", i)
				}
			}()
			fn()
		}()
	}
}

func TestThreadSet(t *testing.T) {
	ts := NewThreadSet(3, 1)
	ts.Add(2, 3)
	if ts.Len() != 3 {
		t.Fatalf("Len = %d", ts.Len())
	}
	if !ts.Contains(2) || ts.Contains(9) {
		t.Fatal("Contains wrong")
	}
	got := ts.Sorted()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Sorted = %v", got)
	}
}

func TestAllThreads(t *testing.T) {
	s, _, ew, alice, _ := buildSmall(t)
	s.AddThread(ew, alice, "a", "x", day(1))
	s.AddThread(ew, alice, "b", "x", day(2))
	if got := s.AllThreads(); len(got) != 2 {
		t.Fatalf("AllThreads = %v", got)
	}
}

// TestPostsInPlace holds the post accessors to their contract: ranging
// over a thread's or an actor's posts allocates nothing, and the posts
// come out in the store's ID order.
func TestPostsInPlace(t *testing.T) {
	s, _, ew, alice, bob := buildSmall(t)
	th := s.AddThread(ew, alice, "t", "p1", day(2))
	other := s.AddThread(ew, bob, "u", "q1", day(3))
	s.AddReply(th, bob, "r1", day(4), 0)
	s.AddReply(other, alice, "p2", day(5), 0)
	s.AddReply(th, alice, "p3", day(6), 0)

	ids := func(seq iter.Seq[Post]) []PostID {
		var out []PostID
		for p := range seq {
			out = append(out, p.ID)
		}
		return out
	}
	if got := ids(s.PostsInThread(th)); !slices.Equal(got, []PostID{1, 3, 5}) {
		t.Errorf("PostsInThread IDs = %v, want [1 3 5]", got)
	}
	if got := ids(s.PostsByActor(alice)); !slices.Equal(got, []PostID{1, 4, 5}) {
		t.Errorf("PostsByActor IDs = %v, want [1 4 5]", got)
	}

	var n int
	if avg := testing.AllocsPerRun(200, func() {
		for p := range s.PostsInThread(th) {
			n += len(p.Body)
		}
	}); avg != 0 {
		t.Errorf("ranging a thread's posts: %v allocs, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		for p := range s.PostsByActor(alice) {
			n += len(p.Body)
		}
	}); avg != 0 {
		t.Errorf("ranging an actor's posts: %v allocs, want 0", avg)
	}
}

// TestPostRecordsRoundTrip holds the compact post records to the Posts
// they were added as: every field, the time to the nanosecond and in
// UTC, through every reader, plus the reads of IDs the store does not
// hold.
func TestPostRecordsRoundTrip(t *testing.T) {
	s, hf, ew, alice, bob := buildSmall(t)
	lounge := s.AddBoard(hf, "The Lounge", "Lounge")
	carol := s.AddActor(hf, "carol", day(2))
	at := func(d, ns int) time.Time { return day(d).Add(time.Duration(ns)) }

	var want []Post
	add := func(id PostID, th ThreadID, a ActorID, body string, created time.Time, quotes PostID) {
		want = append(want, Post{ID: id, Thread: th, Author: a, Body: body, Created: created, Quotes: quotes})
	}
	t1 := s.AddThread(ew, alice, "pack", "opener", at(10, 123_456_789))
	add(1, t1, alice, "opener", at(10, 123_456_789), 0)
	t2 := s.AddThread(lounge, bob, "hi", "", at(3, 1))
	add(2, t2, bob, "", at(3, 1), 0)
	add(s.AddReply(t1, bob, "thanks", at(9, 999_999_999), 1), t1, bob, "thanks", at(9, 999_999_999), 1)
	add(s.AddReply(t2, alice, "quote", at(3, 0), 2), t2, alice, "quote", at(3, 0), 2)
	add(s.AddReply(t1, alice, "bump", at(10, 123_456_790), math.MaxInt32), t1, alice, "bump", at(10, 123_456_790), math.MaxInt32)

	if s.NumPosts() != len(want) {
		t.Fatalf("NumPosts = %d, want %d", s.NumPosts(), len(want))
	}
	for _, w := range want {
		if got := s.Post(w.ID); got != w {
			t.Errorf("Post(%d) = %+v, want %+v", w.ID, got, w)
		}
	}
	filter := func(keep func(Post) bool) []Post {
		var out []Post
		for _, p := range want {
			if keep(p) {
				out = append(out, p)
			}
		}
		return out
	}
	for _, th := range []ThreadID{t1, t2} {
		in := filter(func(p Post) bool { return p.Thread == th })
		if got := slices.Collect(s.PostsInThread(th)); !slices.Equal(got, in) {
			t.Errorf("PostsInThread(%d) = %+v, want %+v", th, got, in)
		}
		if got := s.FirstPost(th); got != in[0] {
			t.Errorf("FirstPost(%d) = %+v, want %+v", th, got, in[0])
		}
		if got := s.NumReplies(th); got != len(in)-1 {
			t.Errorf("NumReplies(%d) = %d, want %d", th, got, len(in)-1)
		}
	}
	for _, a := range []ActorID{alice, bob, carol} {
		by := filter(func(p Post) bool { return p.Author == a })
		if got := slices.Collect(s.PostsByActor(a)); !slices.Equal(got, by) {
			t.Errorf("PostsByActor(%d) = %+v, want %+v", a, got, by)
		}
		first, last, n := s.ActivitySpan(a)
		var wantFirst, wantLast time.Time
		if len(by) > 0 {
			wantFirst = slices.MinFunc(by, func(p, q Post) int { return p.Created.Compare(q.Created) }).Created
			wantLast = slices.MaxFunc(by, func(p, q Post) int { return p.Created.Compare(q.Created) }).Created
		}
		if first != wantFirst || last != wantLast || n != len(by) {
			t.Errorf("ActivitySpan(%d) = %v, %v, %d; want %v, %v, %d", a, first, last, n, wantFirst, wantLast, len(by))
		}
	}
	if first, last, ok := s.Span(); !ok || first != at(3, 0) || last != at(10, 123_456_790) {
		t.Errorf("Span = %v, %v, %v; want %v, %v", first, last, ok, at(3, 0), at(10, 123_456_790))
	}

	// IDs the store does not hold read as they always have: empty,
	// zero, or a panic.
	for _, th := range []ThreadID{0, -1, t2 + 1} {
		if got := slices.Collect(s.PostsInThread(th)); len(got) != 0 {
			t.Errorf("PostsInThread(%d) = %+v, want none", th, got)
		}
		if got := s.NumReplies(th); got != 0 {
			t.Errorf("NumReplies(%d) = %d, want 0", th, got)
		}
		mustPanic(t, fmt.Sprintf("FirstPost(%d)", th), func() { s.FirstPost(th) })
	}
	for _, a := range []ActorID{0, -1, carol + 1} {
		if got := slices.Collect(s.PostsByActor(a)); len(got) != 0 {
			t.Errorf("PostsByActor(%d) = %+v, want none", a, got)
		}
		if got := s.ThreadsByActor(a); got != nil {
			t.Errorf("ThreadsByActor(%d) = %v, want nil", a, got)
		}
		if _, _, n := s.ActivitySpan(a); n != 0 {
			t.Errorf("ActivitySpan(%d) counted %d posts", a, n)
		}
	}
	for _, b := range []BoardID{0, lounge + 1} {
		if got := s.ThreadsInBoard(b); got != nil {
			t.Errorf("ThreadsInBoard(%d) = %v, want nil", b, got)
		}
	}
	if got := s.Boards(hf + 1); got == nil || len(got) != 0 {
		t.Errorf("Boards(unknown) = %#v, want an empty slice", got)
	}
	if _, ok := s.BoardByName(0, "eWhoring"); ok {
		t.Error("BoardByName found a board of forum 0")
	}
	for _, id := range []PostID{0, -1, PostID(len(want) + 1)} {
		mustPanic(t, fmt.Sprintf("Post(%d)", id), func() { s.Post(id) })
	}
}

// TestPostRecordGuards holds the narrowed record fields to their
// range: an ID or a time the record cannot hold panics when it is
// added, before the store changes, instead of wrapping.
func TestPostRecordGuards(t *testing.T) {
	if size := reflect.TypeOf(postRecord{}).Size(); size > 40 {
		t.Errorf("postRecord is %d bytes, want at most 40", size)
	}
	if got := narrow("post", PostID(math.MaxInt32)); got != math.MaxInt32 {
		t.Errorf("narrow(MaxInt32) = %d", got)
	}
	for _, id := range []PostID{math.MaxInt32 + 1, math.MinInt32 - 1, 1 << 40} {
		mustPanic(t, fmt.Sprintf("narrow(%d)", id), func() { narrow("post", id) })
	}

	s, _, ew, alice, _ := buildSmall(t)
	th := s.AddThread(ew, alice, "t", "p", day(1))
	cases := map[string]func(){
		"quote past MaxInt32":  func() { s.AddReply(th, alice, "x", day(2), math.MaxInt32+1) },
		"author past MaxInt32": func() { s.AddReply(th, math.MaxInt32+1, "x", day(2), 0) },
		"unknown author":       func() { s.AddReply(th, 9, "x", day(2), 0) },
		"thread past MaxInt32": func() { s.AddReply(math.MaxInt32+1, alice, "x", day(2), 0) },
		"zero time":            func() { s.AddReply(th, alice, "x", time.Time{}, 0) },
		"year 2300":            func() { s.AddReply(th, alice, "x", day(2).AddDate(285, 0, 0), 0) },
	}
	for name, fn := range cases {
		mustPanic(t, name, fn)
	}
	if s.NumPosts() != 1 || s.NumReplies(th) != 0 {
		t.Errorf("after the panics: %d posts, %d replies; want 1, 0", s.NumPosts(), s.NumReplies(th))
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	fn()
}
