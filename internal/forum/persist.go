package forum

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Persistence: the study releases its processed data ("we release our
// code and part of the processed data publicly"); Store supports a
// line-delimited JSON dump/restore so generated corpora can be
// exported, shared and re-loaded without regeneration.
//
// The format is JSONL with a type tag per line, written in an order
// that allows single-pass loading (forums, boards, actors, threads,
// posts).

// recordType tags a JSONL line.
type recordType string

const (
	recForum  recordType = "forum"
	recBoard  recordType = "board"
	recActor  recordType = "actor"
	recThread recordType = "thread"
	recPost   recordType = "post"
)

// jsonRecord is the on-disk union record.
type jsonRecord struct {
	Type recordType `json:"type"`

	// forum
	Name string `json:"name,omitempty"`

	// board
	Forum    ForumID `json:"forum,omitempty"`
	Category string  `json:"category,omitempty"`

	// actor
	Registered *time.Time `json:"registered,omitempty"`

	// thread
	Board   BoardID    `json:"board,omitempty"`
	Author  ActorID    `json:"author,omitempty"`
	Heading string     `json:"heading,omitempty"`
	Created *time.Time `json:"created,omitempty"`

	// post
	Thread ThreadID `json:"thread,omitempty"`
	Body   string   `json:"body,omitempty"`
	Quotes PostID   `json:"quotes,omitempty"`
}

// Export writes the whole dataset as JSONL. The output reloads with
// Import into an identical store (IDs are preserved because both
// directions assign them densely in the same order).
func (s *Store) Export(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	for i := range s.forums {
		if err := enc.Encode(jsonRecord{Type: recForum, Name: s.forums[i].Name}); err != nil {
			return err
		}
	}
	for i := range s.boards {
		b := &s.boards[i]
		if err := enc.Encode(jsonRecord{Type: recBoard, Forum: b.Forum, Name: b.Name, Category: b.Category}); err != nil {
			return err
		}
	}
	for i := range s.actors {
		a := &s.actors[i]
		reg := a.Registered
		if err := enc.Encode(jsonRecord{Type: recActor, Forum: a.Forum, Name: a.Name, Registered: &reg}); err != nil {
			return err
		}
	}
	for i := range s.threads {
		t := &s.threads[i]
		created := t.Created
		if err := enc.Encode(jsonRecord{
			Type: recThread, Board: t.Board, Author: t.Author,
			Heading: t.Heading, Created: &created,
		}); err != nil {
			return err
		}
	}
	for i := range s.posts {
		p := &s.posts[i]
		created := p.Created
		if err := enc.Encode(jsonRecord{
			Type: recPost, Thread: p.Thread, Author: p.Author,
			Body: p.Body, Created: &created, Quotes: p.Quotes,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Import loads a JSONL dump produced by Export into a fresh store. It
// fails on malformed lines and on references to a forum, board, actor,
// thread or quoted post that no earlier line defined.
func Import(r io.Reader) (*Store, error) {
	s := NewStore()
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<20))
	line := 0
	// Threads carry their first post separately in the JSONL stream
	// (the post records follow), so AddThread's implicit first post
	// cannot be used; append thread shells and splice posts in.
	for {
		var rec jsonRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("forum: import line %d: %w", line+1, err)
		}
		line++
		switch rec.Type {
		case recForum:
			s.AddForum(rec.Name)
		case recBoard:
			if int(rec.Forum) > len(s.forums) || rec.Forum < 1 {
				return nil, fmt.Errorf("forum: import line %d: board references unknown forum %d", line, rec.Forum)
			}
			s.AddBoard(rec.Forum, rec.Name, rec.Category)
		case recActor:
			if rec.Registered == nil {
				return nil, fmt.Errorf("forum: import line %d: actor without registration date", line)
			}
			if int(rec.Forum) > len(s.forums) || rec.Forum < 1 {
				return nil, fmt.Errorf("forum: import line %d: actor references unknown forum %d", line, rec.Forum)
			}
			s.AddActor(rec.Forum, rec.Name, *rec.Registered)
		case recThread:
			if rec.Created == nil {
				return nil, fmt.Errorf("forum: import line %d: thread without creation date", line)
			}
			if int(rec.Board) > len(s.boards) || rec.Board < 1 {
				return nil, fmt.Errorf("forum: import line %d: thread references unknown board %d", line, rec.Board)
			}
			if int(rec.Author) > len(s.actors) || rec.Author < 1 {
				return nil, fmt.Errorf("forum: import line %d: thread references unknown actor %d", line, rec.Author)
			}
			b := s.boards[rec.Board-1]
			id := ThreadID(len(s.threads) + 1)
			s.threads = append(s.threads, Thread{
				ID: id, Board: rec.Board, Forum: b.Forum, Author: rec.Author,
				Heading: rec.Heading, Created: *rec.Created,
			})
			s.threadsByBoard[rec.Board] = append(s.threadsByBoard[rec.Board], id)
			s.threadsByActor[rec.Author] = append(s.threadsByActor[rec.Author], id)
		case recPost:
			if rec.Created == nil {
				return nil, fmt.Errorf("forum: import line %d: post without creation date", line)
			}
			if int(rec.Thread) > len(s.threads) || rec.Thread < 1 {
				return nil, fmt.Errorf("forum: import line %d: post references unknown thread %d", line, rec.Thread)
			}
			if int(rec.Author) > len(s.actors) || rec.Author < 1 {
				return nil, fmt.Errorf("forum: import line %d: post references unknown actor %d", line, rec.Author)
			}
			// 0 is "no quote"; a quote names a post read earlier.
			if int(rec.Quotes) > len(s.posts) || rec.Quotes < 0 {
				return nil, fmt.Errorf("forum: import line %d: post quotes unknown post %d", line, rec.Quotes)
			}
			s.addPost(rec.Thread, rec.Author, rec.Body, *rec.Created, rec.Quotes)
		default:
			return nil, fmt.Errorf("forum: import line %d: unknown record type %q", line, rec.Type)
		}
	}
	// Validate: every thread must have at least one post.
	for i := range s.threads {
		if len(s.postsByThread[s.threads[i].ID]) == 0 {
			return nil, fmt.Errorf("forum: import: thread %d has no posts", s.threads[i].ID)
		}
	}
	return s, nil
}
