// Package forum implements a CrimeBB-like relational store for
// underground-forum scrape data: forums contain boards, boards contain
// threads, threads contain posts, and posts are written by actors.
//
// The store is append-only and maintains the secondary indexes every
// stage of the study needs (posts by thread, posts by actor, threads by
// board, heading keyword search). It mirrors the schema of the CrimeBB
// dataset the paper consumes, so the pipeline code reads exactly the
// way the paper describes its queries ("we searched for two specific
// keywords in the headings of all the threads", "we include all the
// threads from the specific board dedicated to eWhoring").
package forum

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// Identifier types. IDs are dense, 1-based, and assigned by the Store.
type (
	// ForumID identifies a forum (e.g. Hackforums).
	ForumID int
	// BoardID identifies a board within a forum.
	BoardID int
	// ThreadID identifies a thread within a board.
	ThreadID int
	// PostID identifies a post within a thread.
	PostID int
	// ActorID identifies a forum member. Actors are per-forum, as in
	// CrimeBB: the same person on two forums is two actors.
	ActorID int
)

// Forum is one scraped community.
type Forum struct {
	ID   ForumID
	Name string
}

// Board is a topical section of a forum. Category is the forum's own
// top-level grouping (e.g. Hackforums groups boards into Hacking,
// Gaming, Market, ...), which §6 uses to measure actor interests.
type Board struct {
	ID       BoardID
	Forum    ForumID
	Name     string
	Category string
}

// Thread is a conversation: a heading plus an ordered list of posts.
type Thread struct {
	ID      ThreadID
	Board   BoardID
	Forum   ForumID
	Author  ActorID
	Heading string
	Created time.Time
}

// Post is one message in a thread. Quotes holds the PostID the post
// explicitly quotes, or 0 if it quotes nothing; the social graph uses
// this to attribute replies.
type Post struct {
	ID      PostID
	Thread  ThreadID
	Author  ActorID
	Body    string
	Created time.Time
	Quotes  PostID
}

// Actor is a forum member account.
type Actor struct {
	ID         ActorID
	Forum      ForumID
	Name       string
	Registered time.Time
}

// Store is an in-memory CrimeBB-like dataset. The zero value is not
// usable; construct with NewStore. Store is not safe for concurrent
// mutation; concurrent reads after loading are safe.
//
// Posts, about thirty to a thread, are kept as compact records and
// built into a Post when read. The indexes keyed by forum, board,
// thread or actor are dense: entry id-1 lists that parent's children
// in ID order.
type Store struct {
	forums  []Forum
	boards  []Board
	threads []Thread
	posts   []postRecord
	actors  []Actor

	forumByName    map[string]ForumID
	boardsByForum  [][]BoardID
	threadsByBoard [][]ThreadID
	threadsByActor [][]ThreadID
	postsByThread  [][]int32 // post IDs
	postsByActor   [][]int32 // post IDs
}

// postRecord is a Post as the store keeps it: 40 bytes against Post's 72.
// Its ID is its index + 1; the IDs it names are narrowed to int32, and
// its time is an instant in Unix nanoseconds, read back in UTC.
type postRecord struct {
	body    string
	created int64
	thread  int32
	author  int32
	quotes  int32
}

// narrow returns an ID as an int32, and panics if it does not fit:
// wrapped, it would name another row.
func narrow[T ~int](kind string, id T) int32 {
	if T(int32(id)) != id {
		panic(fmt.Sprintf("forum: %s ID %d does not fit in 32 bits", kind, id))
	}
	return int32(id)
}

// Post times are kept as int64 Unix nanoseconds, which span these
// instants.
var (
	minPostTime = time.Unix(0, math.MinInt64)
	maxPostTime = time.Unix(0, math.MaxInt64)
)

// unixNano returns t in Unix nanoseconds, and panics if t lies outside
// the years 1678–2262 that an int64 of nanoseconds holds.
func unixNano(t time.Time) int64 {
	if t.Before(minPostTime) || t.After(maxPostTime) {
		panic(fmt.Sprintf("forum: post time %v outside the storable range", t))
	}
	return t.UnixNano()
}

// utc reads a stored post time back as a UTC instant.
func utc(nanos int64) time.Time { return time.Unix(0, nanos).UTC() }

// row returns the entry of a dense index for a 1-based ID, or nil for
// an ID the index does not hold.
func row[T any](index [][]T, id int) []T {
	if id < 1 || id > len(index) {
		return nil
	}
	return index[id-1]
}

// NewStore returns an empty dataset.
func NewStore() *Store {
	return &Store{forumByName: make(map[string]ForumID)}
}

// Reserve pre-sizes the backing slices for a dataset of roughly the
// given shape. Loading a paper-scale corpus otherwise spends a large
// share of its time in append's doubling copies of the posts slice
// (~2.5M records at scale 1.0). Capacity never affects contents:
// a reserved store and an unreserved one are DeepEqual.
func (s *Store) Reserve(threads, posts, actors int) {
	s.threads = slices.Grow(s.threads, threads)
	s.postsByThread = slices.Grow(s.postsByThread, threads)
	s.posts = slices.Grow(s.posts, posts)
	s.actors = slices.Grow(s.actors, actors)
	s.threadsByActor = slices.Grow(s.threadsByActor, actors)
	s.postsByActor = slices.Grow(s.postsByActor, actors)
}

// AddForum registers a forum and returns its ID. Forum names must be
// unique; re-adding a name returns the existing ID.
func (s *Store) AddForum(name string) ForumID {
	if id, ok := s.forumByName[name]; ok {
		return id
	}
	id := ForumID(len(s.forums) + 1)
	s.forums = append(s.forums, Forum{ID: id, Name: name})
	s.forumByName[name] = id
	s.boardsByForum = append(s.boardsByForum, nil)
	return id
}

// AddBoard registers a board under a forum and returns its ID.
func (s *Store) AddBoard(forum ForumID, name, category string) BoardID {
	s.mustForum(forum)
	id := BoardID(len(s.boards) + 1)
	s.boards = append(s.boards, Board{ID: id, Forum: forum, Name: name, Category: category})
	s.boardsByForum[forum-1] = append(s.boardsByForum[forum-1], id)
	s.threadsByBoard = append(s.threadsByBoard, nil)
	return id
}

// AddActor registers a member of a forum and returns its ID.
func (s *Store) AddActor(forum ForumID, name string, registered time.Time) ActorID {
	s.mustForum(forum)
	id := ActorID(len(s.actors) + 1)
	s.actors = append(s.actors, Actor{ID: id, Forum: forum, Name: name, Registered: registered})
	s.threadsByActor = append(s.threadsByActor, nil)
	s.postsByActor = append(s.postsByActor, nil)
	return id
}

// AddThread creates a thread with its initial post and returns the
// thread ID. The first post's body is firstPost; its author is the
// thread author.
func (s *Store) AddThread(board BoardID, author ActorID, heading, firstPost string, created time.Time) ThreadID {
	b := s.mustBoard(board)
	s.mustActor(author)
	id := ThreadID(len(s.threads) + 1)
	s.threads = append(s.threads, Thread{
		ID: id, Board: board, Forum: b.Forum, Author: author,
		Heading: heading, Created: created,
	})
	s.threadsByBoard[board-1] = append(s.threadsByBoard[board-1], id)
	s.threadsByActor[author-1] = append(s.threadsByActor[author-1], id)
	s.postsByThread = append(s.postsByThread, nil)
	s.addPost(id, author, firstPost, created, 0)
	return id
}

// AddReply appends a post to an existing thread. quotes may be 0 (no
// quote) or the ID of an earlier post in any thread.
func (s *Store) AddReply(thread ThreadID, author ActorID, body string, created time.Time, quotes PostID) PostID {
	s.mustThread(thread)
	s.mustActor(author)
	return s.addPost(thread, author, body, created, quotes)
}

// addPost files a post by a known actor in a known thread.
func (s *Store) addPost(thread ThreadID, author ActorID, body string, created time.Time, quotes PostID) PostID {
	id := narrow("post", len(s.posts)+1)
	s.posts = append(s.posts, postRecord{
		body:    body,
		created: unixNano(created),
		thread:  narrow("thread", thread),
		author:  narrow("actor", author),
		quotes:  narrow("quoted post", quotes),
	})
	s.postsByThread[thread-1] = append(s.postsByThread[thread-1], id)
	s.postsByActor[author-1] = append(s.postsByActor[author-1], id)
	return PostID(id)
}

func (s *Store) mustForum(id ForumID) Forum {
	if id < 1 || int(id) > len(s.forums) {
		panic(fmt.Sprintf("forum: unknown forum %d", id))
	}
	return s.forums[id-1]
}

func (s *Store) mustBoard(id BoardID) Board {
	if id < 1 || int(id) > len(s.boards) {
		panic(fmt.Sprintf("forum: unknown board %d", id))
	}
	return s.boards[id-1]
}

func (s *Store) mustThread(id ThreadID) Thread {
	if id < 1 || int(id) > len(s.threads) {
		panic(fmt.Sprintf("forum: unknown thread %d", id))
	}
	return s.threads[id-1]
}

func (s *Store) mustActor(id ActorID) Actor {
	if id < 1 || int(id) > len(s.actors) {
		panic(fmt.Sprintf("forum: unknown actor %d", id))
	}
	return s.actors[id-1]
}

// Forum returns the forum with the given ID.
func (s *Store) Forum(id ForumID) Forum { return s.mustForum(id) }

// ForumByName returns the forum with the given name.
func (s *Store) ForumByName(name string) (Forum, bool) {
	id, ok := s.forumByName[name]
	if !ok {
		return Forum{}, false
	}
	return s.forums[id-1], true
}

// Board returns the board with the given ID.
func (s *Store) Board(id BoardID) Board { return s.mustBoard(id) }

// Thread returns the thread with the given ID.
func (s *Store) Thread(id ThreadID) Thread { return s.mustThread(id) }

// Post returns the post with the given ID.
func (s *Store) Post(id PostID) Post {
	if id < 1 || int(id) > len(s.posts) {
		panic(fmt.Sprintf("forum: unknown post %d", id))
	}
	return s.post(int32(id))
}

// post builds the Post with the given ID from its record.
func (s *Store) post(id int32) Post {
	r := &s.posts[id-1]
	return Post{
		ID:      PostID(id),
		Thread:  ThreadID(r.thread),
		Author:  ActorID(r.author),
		Body:    r.body,
		Created: utc(r.created),
		Quotes:  PostID(r.quotes),
	}
}

// Actor returns the actor with the given ID.
func (s *Store) Actor(id ActorID) Actor { return s.mustActor(id) }

// Forums returns all forums in creation order.
func (s *Store) Forums() []Forum { return s.forums }

// Boards returns the boards of a forum in creation order.
func (s *Store) Boards(forum ForumID) []Board {
	ids := row(s.boardsByForum, int(forum))
	out := make([]Board, len(ids))
	for i, id := range ids {
		out[i] = s.boards[id-1]
	}
	return out
}

// BoardByName returns the first board of the forum with the given name.
func (s *Store) BoardByName(forum ForumID, name string) (Board, bool) {
	for _, id := range row(s.boardsByForum, int(forum)) {
		if b := s.boards[id-1]; b.Name == name {
			return b, true
		}
	}
	return Board{}, false
}

// NumForums, NumBoards, NumThreads, NumPosts and NumActors report
// dataset sizes.
func (s *Store) NumForums() int  { return len(s.forums) }
func (s *Store) NumBoards() int  { return len(s.boards) }
func (s *Store) NumThreads() int { return len(s.threads) }
func (s *Store) NumPosts() int   { return len(s.posts) }
func (s *Store) NumActors() int  { return len(s.actors) }

// ThreadsInBoard returns the IDs of all threads in a board, in
// creation order.
func (s *Store) ThreadsInBoard(board BoardID) []ThreadID {
	return row(s.threadsByBoard, int(board))
}

// PostsInThread yields the posts of a thread in posting (ID) order,
// each built from its record as it is yielded: ranging over it
// allocates nothing.
func (s *Store) PostsInThread(thread ThreadID) iter.Seq[Post] {
	return s.postsOf(row(s.postsByThread, int(thread)))
}

// postsOf yields the posts with the given IDs, in order.
func (s *Store) postsOf(ids []int32) iter.Seq[Post] {
	return func(yield func(Post) bool) {
		for _, id := range ids {
			if !yield(s.post(id)) {
				return
			}
		}
	}
}

// FirstPost returns the opening post of a thread.
func (s *Store) FirstPost(thread ThreadID) Post {
	ids := row(s.postsByThread, int(thread))
	if len(ids) == 0 {
		panic(fmt.Sprintf("forum: thread %d has no posts", thread))
	}
	return s.post(ids[0])
}

// NumReplies returns the number of posts in a thread beyond the opener.
func (s *Store) NumReplies(thread ThreadID) int {
	n := len(row(s.postsByThread, int(thread)))
	if n == 0 {
		return 0
	}
	return n - 1
}

// PostsByActor yields an actor's posts in posting (ID) order, each
// built from its record as it is yielded: ranging over it allocates
// nothing.
func (s *Store) PostsByActor(actor ActorID) iter.Seq[Post] {
	return s.postsOf(row(s.postsByActor, int(actor)))
}

// ThreadsByActor returns the IDs of threads the actor started.
func (s *Store) ThreadsByActor(actor ActorID) []ThreadID {
	return row(s.threadsByActor, int(actor))
}

// AllThreads returns the IDs of every thread in the dataset.
func (s *Store) AllThreads() []ThreadID {
	out := make([]ThreadID, len(s.threads))
	for i := range s.threads {
		out[i] = s.threads[i].ID
	}
	return out
}

// SearchHeadings returns the IDs of threads whose lowercased heading
// contains any of the given lowercase keywords, in thread order. This
// is the paper's thread-selection primitive ("we searched for two
// specific keywords (i.e., 'ewhor' and 'e-whor') in the headings of
// all the threads ... comparison was done in lowercase").
func (s *Store) SearchHeadings(keywords ...string) []ThreadID {
	var out []ThreadID
	for i := range s.threads {
		h := strings.ToLower(s.threads[i].Heading)
		for _, kw := range keywords {
			if strings.Contains(h, kw) {
				out = append(out, s.threads[i].ID)
				break
			}
		}
	}
	return out
}

// ActivitySpan returns the times of an actor's first and last posts
// and how many posts the actor wrote; n is 0 if the actor never
// posted.
func (s *Store) ActivitySpan(actor ActorID) (first, last time.Time, n int) {
	ids := row(s.postsByActor, int(actor))
	if len(ids) == 0 {
		return time.Time{}, time.Time{}, 0
	}
	lo := s.posts[ids[0]-1].created
	hi := lo
	for _, id := range ids[1:] {
		t := s.posts[id-1].created
		lo, hi = min(lo, t), max(hi, t)
	}
	return utc(lo), utc(hi), len(ids)
}

// Span returns the times of the earliest and latest posts in the
// dataset, and false if there are no posts.
func (s *Store) Span() (first, last time.Time, ok bool) {
	if len(s.posts) == 0 {
		return time.Time{}, time.Time{}, false
	}
	lo := s.posts[0].created
	hi := lo
	for i := range s.posts {
		t := s.posts[i].created
		lo, hi = min(lo, t), max(hi, t)
	}
	return utc(lo), utc(hi), true
}

// ThreadSet is a set of thread IDs with deterministic iteration order.
type ThreadSet struct {
	ids map[ThreadID]struct{}
}

// NewThreadSet builds a set from the given IDs.
func NewThreadSet(ids ...ThreadID) *ThreadSet {
	ts := &ThreadSet{ids: make(map[ThreadID]struct{}, len(ids))}
	for _, id := range ids {
		ts.ids[id] = struct{}{}
	}
	return ts
}

// Add inserts IDs into the set.
func (ts *ThreadSet) Add(ids ...ThreadID) {
	for _, id := range ids {
		ts.ids[id] = struct{}{}
	}
}

// Contains reports membership.
func (ts *ThreadSet) Contains(id ThreadID) bool {
	_, ok := ts.ids[id]
	return ok
}

// Len returns the set size.
func (ts *ThreadSet) Len() int { return len(ts.ids) }

// Sorted returns the members in ascending ID order.
func (ts *ThreadSet) Sorted() []ThreadID {
	out := make([]ThreadID, 0, len(ts.ids))
	for id := range ts.ids {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
