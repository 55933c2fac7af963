package forum

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func buildForPersist(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	hf := s.AddForum("Hackforums")
	og := s.AddForum("OGUsers")
	ew := s.AddBoard(hf, "eWhoring", "Money")
	gen := s.AddBoard(og, "General", "Common")
	alice := s.AddActor(hf, "alice", day(0))
	bob := s.AddActor(og, "bob", day(1))
	t1 := s.AddThread(ew, alice, "[WTS] unsaturated pack", "selling, links inside", day(2))
	s.AddReply(t1, bob, "thanks for the share!", day(3), s.FirstPost(t1).ID)
	t2 := s.AddThread(gen, bob, "ewhoring question?", "how do i start", day(4))
	s.AddReply(t2, alice, "read the guide", day(5), 0)
	return s
}

func TestExportImportRoundtrip(t *testing.T) {
	s := buildForPersist(t)
	var buf bytes.Buffer
	if err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumForums() != s.NumForums() || back.NumBoards() != s.NumBoards() ||
		back.NumActors() != s.NumActors() || back.NumThreads() != s.NumThreads() ||
		back.NumPosts() != s.NumPosts() {
		t.Fatalf("counts differ after roundtrip")
	}
	// Content equality.
	for _, tid := range s.AllThreads() {
		orig := s.Thread(tid)
		got := back.Thread(tid)
		if orig.Heading != got.Heading || orig.Board != got.Board ||
			orig.Author != got.Author || !orig.Created.Equal(got.Created) {
			t.Fatalf("thread %d differs: %+v vs %+v", tid, orig, got)
		}
		op := slices.Collect(s.PostsInThread(tid))
		gp := slices.Collect(back.PostsInThread(tid))
		if len(op) != len(gp) {
			t.Fatalf("thread %d post count differs", tid)
		}
		for i := range op {
			if op[i].Body != gp[i].Body || op[i].Quotes != gp[i].Quotes ||
				op[i].Author != gp[i].Author || !op[i].Created.Equal(gp[i].Created) {
				t.Fatalf("post differs: %+v vs %+v", op[i], gp[i])
			}
		}
	}
	// Indexes work on the imported store.
	if got := back.SearchHeadings("ewhor"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("SearchHeadings on import = %v", got)
	}
	if _, ok := back.ForumByName("OGUsers"); !ok {
		t.Fatal("forum name index lost")
	}
}

// persistPrefix defines forum 1, board 1 and actor 1; persistThread
// adds thread 1 by actor 1.
const (
	persistPrefix = `{"type":"forum","name":"HF"}
{"type":"board","forum":1,"name":"b","category":"c"}
{"type":"actor","forum":1,"name":"a","registered":"2015-01-01T00:00:00Z"}
`
	persistThread = `{"type":"thread","board":1,"author":1,"heading":"h","created":"2015-01-02T00:00:00Z"}
`
)

func TestImportRejectsGarbage(t *testing.T) {
	cases := []string{
		`{"type":"mystery"}`,
		`{"type":"board","forum":99,"name":"x"}`,
		`{"type":"actor","forum":1,"name":"x"}`, // no registration
		`not json at all`,
		`{"type":"post","thread":5,"author":1,"created":"2015-01-01T00:00:00Z"}`,
		`{"type":"thread","board":7,"author":1,"heading":"x","created":"2015-01-01T00:00:00Z"}`,
		`{"type":"actor","forum":5,"registered":"2019-01-01T00:00:00Z"}`,
		persistPrefix + `{"type":"thread","board":1,"author":2,"heading":"h","created":"2015-01-02T00:00:00Z"}`,
		persistPrefix + persistThread + `{"type":"post","thread":1,"author":0,"created":"2015-01-02T00:00:00Z"}`,
		persistPrefix + persistThread + `{"type":"post","thread":1,"author":1,"quotes":1,"created":"2015-01-02T00:00:00Z"}`,
	}
	for i, c := range cases {
		if _, err := Import(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// The same prefix with a valid post loads, so each case above is
	// rejected for its bad reference alone.
	ok := persistPrefix + persistThread + `{"type":"post","thread":1,"author":1,"created":"2015-01-02T00:00:00Z"}`
	if _, err := Import(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid dump rejected: %v", err)
	}
}

func TestImportRejectsPostlessThread(t *testing.T) {
	input := `{"type":"forum","name":"HF"}
{"type":"board","forum":1,"name":"b","category":"c"}
{"type":"actor","forum":1,"name":"a","registered":"2015-01-01T00:00:00Z"}
{"type":"thread","board":1,"author":1,"heading":"h","created":"2015-01-02T00:00:00Z"}
`
	if _, err := Import(strings.NewReader(input)); err == nil {
		t.Fatal("thread without posts accepted")
	}
}

func TestExportDeterministic(t *testing.T) {
	s := buildForPersist(t)
	var a, b bytes.Buffer
	if err := s.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Export not deterministic")
	}
}
