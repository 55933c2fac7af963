package artefact

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// env is a test environment: a request-like key plus a trace of
// computed nodes.
type env struct {
	key string

	mu    sync.Mutex
	trace []string
}

func (e *env) record(name string) {
	e.mu.Lock()
	e.trace = append(e.trace, name)
	e.mu.Unlock()
}

func (e *env) traced() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.trace))
	copy(out, e.trace)
	sort.Strings(out)
	return out
}

// diamond builds the classic diamond a → (b, c) → d, where every node
// value is the concatenation of its dependency values plus its own
// name.
func diamond(t *testing.T) *Graph[*env] {
	t.Helper()
	g := NewGraph[*env]()
	key := func(name string) func(*env) string {
		return func(e *env) string { return e.key + "/" + name }
	}
	node := func(name string, deps ...string) Node[*env] {
		return Node[*env]{
			Name: name,
			Deps: deps,
			Key:  key(name),
			Compute: func(_ context.Context, e *env, d Deps) (any, error) {
				e.record(name)
				parts := make([]string, 0, len(deps)+1)
				for _, dep := range deps {
					parts = append(parts, Get[string](d, dep))
				}
				parts = append(parts, name)
				return strings.Join(parts, "+"), nil
			},
		}
	}
	g.MustRegister(node("a"))
	g.MustRegister(node("b", "a"))
	g.MustRegister(node("c", "a"))
	g.MustRegister(node("d", "b", "c"))
	return g
}

func TestEvaluateDiamond(t *testing.T) {
	g := diamond(t)
	e := &env{key: "k"}
	vals, err := g.Evaluate(context.Background(), e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := Get[string](vals, "d"); got != "a+b+a+c+d" {
		t.Fatalf("d = %q", got)
	}
	// The private store still deduplicates within one evaluation: the
	// shared dependency a computes once, not once per consumer.
	if got := e.traced(); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("computed %v, want each node exactly once", got)
	}
}

func TestEvaluateSelective(t *testing.T) {
	g := diamond(t)
	e := &env{key: "k"}
	store := NewStore(0)
	vals, err := g.Evaluate(context.Background(), e, store, "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vals["c"]; ok {
		t.Fatal("c is outside b's closure but was returned")
	}
	if got := e.traced(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("computed %v, want only the closure of b", got)
	}
	if n := store.ComputeCount("d"); n != 0 {
		t.Fatalf("d computed %d times for target b", n)
	}
}

func TestEvaluateMemoizes(t *testing.T) {
	g := diamond(t)
	store := NewStore(0)
	ctx := context.Background()

	e1 := &env{key: "k"}
	if _, err := g.Evaluate(ctx, e1, store); err != nil {
		t.Fatal(err)
	}
	// Same key, fresh environment: everything is answered from memo.
	e2 := &env{key: "k"}
	vals, err := g.Evaluate(ctx, e2, store)
	if err != nil {
		t.Fatal(err)
	}
	if got := Get[string](vals, "d"); got != "a+b+a+c+d" {
		t.Fatalf("memoized d = %q", got)
	}
	if len(e2.traced()) != 0 {
		t.Fatalf("warm evaluation computed %v", e2.traced())
	}
	// The ledger holds one row per node: the cold compute, timed, and
	// the warm hit.
	nodes := store.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("ledger has %d rows, want 4: %+v", len(nodes), nodes)
	}
	for i, n := range nodes {
		if want := string(rune('a' + i)); n.Name != want {
			t.Fatalf("row %d is %q, want %q (sorted by name)", i, n.Name, want)
		}
		if n.Hits != 1 || n.Computes != 1 || n.Latency.Count != 1 {
			t.Fatalf("row %s = %d hits / %d computes / %d timed, want 1/1/1",
				n.Name, n.Hits, n.Computes, n.Latency.Count)
		}
	}
	// A different key shares nothing.
	e3 := &env{key: "other"}
	if _, err := g.Evaluate(ctx, e3, store); err != nil {
		t.Fatal(err)
	}
	if got := e3.traced(); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("distinct key computed %v, want all nodes", got)
	}
	if st := store.Stats(); st.Computes != 8 || st.Hits != 4 {
		t.Fatalf("store stats %+v, want 8 computes / 4 hits", st)
	}
}

func TestEvaluateSingleflight(t *testing.T) {
	// Many concurrent evaluations over one store and key: each node
	// computes exactly once in total.
	g := diamond(t)
	store := NewStore(0)
	var wg sync.WaitGroup
	var computes atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := &env{key: "k"}
			if _, err := g.Evaluate(context.Background(), e, store); err != nil {
				t.Error(err)
			}
			computes.Add(int64(len(e.traced())))
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 4 {
		t.Fatalf("%d total computations across 8 concurrent evaluations, want 4", got)
	}
}

func TestEvaluateErrors(t *testing.T) {
	g := NewGraph[*env]()
	boom := errors.New("boom")
	var attempts atomic.Int64
	g.MustRegister(Node[*env]{
		Name: "bad",
		Key:  func(*env) string { return "k" },
		Compute: func(context.Context, *env, Deps) (any, error) {
			// Fail only the first time: errors must not memoize.
			if attempts.Add(1) == 1 {
				return nil, boom
			}
			return "ok", nil
		},
	})
	g.MustRegister(Node[*env]{
		Name: "down",
		Deps: []string{"bad"},
		Key:  func(*env) string { return "k" },
		Compute: func(_ context.Context, _ *env, d Deps) (any, error) {
			return Get[string](d, "bad") + "!", nil
		},
	})
	store := NewStore(0)
	if _, err := g.Evaluate(context.Background(), &env{}, store, "down"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	vals, err := g.Evaluate(context.Background(), &env{}, store, "down")
	if err != nil {
		t.Fatalf("retry after error failed: %v", err)
	}
	if got := Get[string](vals, "down"); got != "ok!" {
		t.Fatalf("down = %q", got)
	}
}

// TestWaiterRetriesAfterCreatorFails pins the in-flight error
// contract: an evaluation waiting on another evaluation's in-flight
// node must not inherit that creator's failure (e.g. its private
// timeout) — it retries with its own context and succeeds.
func TestWaiterRetriesAfterCreatorFails(t *testing.T) {
	g := NewGraph[*env]()
	var calls atomic.Int64
	creatorEntered := make(chan struct{})
	release := make(chan struct{})
	g.MustRegister(Node[*env]{
		Name: "n",
		Key:  func(*env) string { return "k" },
		Compute: func(ctx context.Context, _ *env, _ Deps) (any, error) {
			if calls.Add(1) == 1 {
				close(creatorEntered)
				<-release
				<-ctx.Done() // die of the creator's own cancellation
				return nil, ctx.Err()
			}
			return "ok", nil
		},
	})
	store := NewStore(0)
	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := g.Evaluate(ctxA, &env{}, store, "n")
		aDone <- err
	}()
	<-creatorEntered
	// B joins (usually as a waiter on A's in-flight entry; if it
	// races past, it computes directly — either way it must succeed).
	bDone := make(chan struct{})
	var bVals map[string]any
	var bErr error
	go func() {
		defer close(bDone)
		bVals, bErr = g.Evaluate(context.Background(), &env{}, store, "n")
	}()
	close(release)
	cancelA()
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("creator err = %v, want context.Canceled", err)
	}
	<-bDone
	if bErr != nil {
		t.Fatalf("waiter inherited the creator's failure: %v", bErr)
	}
	if got := Get[string](bVals, "n"); got != "ok" {
		t.Fatalf("waiter value = %q", got)
	}
}

func TestEvaluateUnknownAndCycle(t *testing.T) {
	g := diamond(t)
	if _, err := g.Evaluate(context.Background(), &env{}, nil, "nope"); err == nil {
		t.Fatal("unknown target accepted")
	}
	c := NewGraph[*env]()
	ok := func(context.Context, *env, Deps) (any, error) { return nil, nil }
	c.MustRegister(Node[*env]{Name: "x", Deps: []string{"y"}, Compute: ok})
	c.MustRegister(Node[*env]{Name: "y", Deps: []string{"x"}, Compute: ok})
	if _, err := c.Evaluate(context.Background(), &env{}, nil, "x"); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	g := NewGraph[*env]()
	ok := func(context.Context, *env, Deps) (any, error) { return nil, nil }
	if err := g.Register(Node[*env]{Name: "", Compute: ok}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := g.Register(Node[*env]{Name: "n"}); err == nil {
		t.Fatal("nil Compute accepted")
	}
	if err := g.Register(Node[*env]{Name: "n", Compute: ok}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(Node[*env]{Name: "n", Compute: ok}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestStoreLRUBound(t *testing.T) {
	store := NewStore(2)
	compute := func(v string) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return v, nil }
	}
	ctx := context.Background()
	// hit resolves key and reports whether the store answered it.
	hit := func(key string) bool {
		before := store.Stats().Hits
		if _, err := store.resolve(ctx, "n", key, compute(key)); err != nil {
			t.Fatal(err)
		}
		return store.Stats().Hits > before
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := store.resolve(ctx, "n", key, compute(key)); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d entries, want 2", store.Len())
	}
	st := store.Stats()
	if st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
	// The newest keys survive; the oldest recompute.
	if !hit("k4") {
		t.Fatal("most recent entry was evicted")
	}
	if hit("k0") {
		t.Fatal("oldest entry survived a full eviction cycle")
	}
}

// TestStoreEvictionSkipsInFlight pins the eviction contract: an
// in-flight entry is never evicted (the store transiently exceeds its
// bound instead), so concurrent resolvers keep deduplicating onto the
// running computation and its value is stored when it completes.
func TestStoreEvictionSkipsInFlight(t *testing.T) {
	store := NewStore(1)
	ctx := context.Background()
	started := make(chan struct{})
	release := make(chan struct{})
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		store.resolve(ctx, "n", "slow", func(context.Context) (any, error) {
			close(started)
			<-release
			return "slow-value", nil
		})
	}()
	<-started
	// Inserting a second entry overflows max=1, but the in-flight
	// entry must survive.
	if _, err := store.resolve(ctx, "n", "fast", func(context.Context) (any, error) { return "fast", nil }); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d entries, want 2 (in-flight entry must not evict)", store.Len())
	}
	close(release)
	<-slowDone
	// The slow value was kept and is served from memo...
	v, err := store.resolve(ctx, "n", "slow", func(context.Context) (any, error) { return "recomputed", nil })
	if st := store.Stats(); err != nil || st.Hits != 1 || v != "slow-value" {
		t.Fatalf("slow entry lost: v=%v hits=%d err=%v", v, st.Hits, err)
	}
	// ...and the next insert shrinks the store back within its bound
	// now that everything is completed.
	if _, err := store.resolve(ctx, "n", "third", func(context.Context) (any, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d entries after completion, want 1", store.Len())
	}
}

func TestClosureTopological(t *testing.T) {
	g := diamond(t)
	order, err := g.Closure("d")
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int, len(order))
	for i, n := range order {
		pos[n] = i
	}
	for _, pair := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if pos[pair[0]] > pos[pair[1]] {
			t.Fatalf("closure %v not topological: %s after %s", order, pair[0], pair[1])
		}
	}
}
