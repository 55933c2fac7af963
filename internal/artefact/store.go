package artefact

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/tracex"
)

// DefaultStoreSize bounds a Store created with no explicit limit.
const DefaultStoreSize = 256

// Store memoizes node values across evaluations. Entries are keyed by
// (node name, node key); concurrent evaluations asking for the same
// entry deduplicate onto one computation (the rest block until it
// finishes), so two requests for different tables of the same world
// run the shared prefix of the graph exactly once. The store is
// LRU-bounded in entries and never memoizes errors — a failed
// computation is dropped so the next evaluation retries.
//
// It is also the node ledger: every resolve lands in its node's row
// as exactly one outcome — a hit, or a compute (keyless bypasses
// included) — and every successful computation adds its wall time to
// the row's latency histogram. Nodes, ComputeCount and Stats are views
// of that one record, which selectivity and reuse tests assert on and
// the study service serves at /v1/stats.
type Store struct {
	mu      sync.Mutex
	max     int
	entries map[string]*entry
	order   []string // LRU order, most recently used last

	nodes   map[string]*nodeLedger
	evicted int64
}

// entry deduplicates one computation: the creator computes, waiters
// block on done.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// nodeLedger is one node's row in the store's ledger.
type nodeLedger struct {
	hits, computes int64               // guarded by Store.mu
	latency        *pipeline.Histogram // successful compute wall time
}

// NewStore returns a store holding at most max entries
// (DefaultStoreSize if max <= 0).
func NewStore(max int) *Store {
	if max <= 0 {
		max = DefaultStoreSize
	}
	return &Store{
		max:     max,
		entries: make(map[string]*entry),
		nodes:   make(map[string]*nodeLedger),
	}
}

// ledger returns the node's ledger row, creating it on first use.
// Caller holds s.mu.
func (s *Store) ledger(node string) *nodeLedger {
	l := s.nodes[node]
	if l == nil {
		l = &nodeLedger{latency: pipeline.NewHistogram()}
		s.nodes[node] = l
	}
	return l
}

// resolve returns the memoized value for (node, key), computing it
// with fn on first use, and records the outcome in the node's ledger
// row and as the "node X" span's outcome attr. An empty key bypasses
// the store entirely (the node is computed every time, and still
// ledgered).
//
// A waiter that observes the creator's failure retries with its own
// fn instead of inheriting the error: one evaluation's timeout or
// cancellation must not poison the evaluations that happened to be
// waiting on its in-flight nodes. Only the waiter's own cancellation
// ends its attempt.
func (s *Store) resolve(ctx context.Context, node, key string, fn func(context.Context) (any, error)) (any, error) {
	// The context tracer (when the caller bound one) records the
	// outcome as a "node X" span, with computed work nested inside.
	ctx, sp := tracex.StartSpan(ctx, "node "+node)
	defer sp.End()
	if key == "" {
		s.mu.Lock()
		l := s.ledger(node)
		l.computes++
		s.mu.Unlock()
		sp.SetAttr("outcome", "bypass")
		return l.compute(ctx, sp, fn)
	}
	id := node + "\x00" + key

	var e *entry
	var l *nodeLedger
	for e == nil {
		s.mu.Lock()
		l = s.ledger(node)
		cur, ok := s.entries[id]
		if !ok {
			e = &entry{done: make(chan struct{})}
			s.entries[id] = e
			s.order = append(s.order, id)
			s.evictLocked()
			l.computes++
			s.mu.Unlock()
			continue
		}
		s.touch(id)
		s.mu.Unlock()
		select {
		case <-cur.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if cur.err == nil {
			s.mu.Lock()
			l.hits++
			s.mu.Unlock()
			sp.SetAttr("outcome", "hit")
			return cur.val, nil
		}
		// The creator failed and already dropped its entry; loop and
		// compute (or join a newer in-flight attempt) ourselves.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	sp.SetAttr("outcome", "compute")
	e.val, e.err = l.compute(ctx, sp, fn)
	if e.err != nil {
		// Never memoize failure: drop the entry (waiters already hold
		// the pointer, observe the error, and retry on their own) so
		// the next attempt recomputes.
		s.mu.Lock()
		if cur, ok := s.entries[id]; ok && cur == e {
			delete(s.entries, id)
			s.drop(id)
		}
		s.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// compute runs fn under the node's span: a failure is recorded on the
// span, a success's wall time in the node's latency histogram.
func (l *nodeLedger) compute(ctx context.Context, sp *tracex.Span, fn func(context.Context) (any, error)) (any, error) {
	start := time.Now()
	v, err := fn(ctx)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return v, err
	}
	l.latency.Observe(time.Since(start))
	return v, nil
}

// evictLocked drops least-recently-used completed entries until the
// store is within its bound. In-flight entries are never evicted —
// that would detach future resolvers from a running computation and
// duplicate its work — so the store may transiently exceed max while
// computations are in flight. Caller holds s.mu.
func (s *Store) evictLocked() {
	for i := 0; i < len(s.order) && len(s.order) > s.max; {
		id := s.order[i]
		select {
		case <-s.entries[id].done:
			copy(s.order[i:], s.order[i+1:])
			s.order = s.order[:len(s.order)-1]
			delete(s.entries, id)
			s.evicted++
			// i now indexes the next candidate.
		default:
			i++ // in flight: skip
		}
	}
}

// touch moves id to the most-recently-used end of the LRU order.
func (s *Store) touch(id string) {
	for i, k := range s.order {
		if k == id {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = id
			return
		}
	}
}

// drop removes id from the LRU order.
func (s *Store) drop(id string) {
	for i, k := range s.order {
		if k == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// Len returns the number of memoized entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// ComputeCount returns how many times the named node actually
// computed through this store.
func (s *Store) ComputeCount(node string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := s.nodes[node]; l != nil {
		return int(l.computes)
	}
	return 0
}

// TotalComputes returns the total number of node computations across
// the store's lifetime.
func (s *Store) TotalComputes() int {
	return int(s.Stats().Computes)
}

// NodeStats is one node's row of the store's ledger.
type NodeStats struct {
	// Name is the node's name.
	Name string
	// Hits counts resolves answered from an existing entry (including
	// waits on another evaluation's in-flight computation).
	Hits int64
	// Computes counts actual computations, keyless bypasses included.
	Computes int64
	// Latency is the wall-time distribution of the node's successful
	// computations (hits are not timed: they would pin every
	// percentile at ~0).
	Latency pipeline.HistogramSnapshot
}

// Nodes returns the ledger, one row per node resolved through the
// store, sorted by node name.
func (s *Store) Nodes() []NodeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NodeStats, 0, len(s.nodes))
	for name, l := range s.nodes {
		out = append(out, NodeStats{Name: name, Hits: l.hits, Computes: l.computes, Latency: l.latency.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StoreStats is a snapshot of the store's counters.
type StoreStats struct {
	// Entries is the number of memoized values currently held.
	Entries int `json:"entries"`
	// Hits counts resolves answered from an existing entry (including
	// waits on another evaluation's in-flight computation).
	Hits int64 `json:"hits"`
	// Computes counts actual node computations.
	Computes int64 `json:"computes"`
	// Evictions counts LRU evictions.
	Evictions int64 `json:"evictions"`
}

// Stats returns a snapshot of the store's counters: the ledger summed
// over nodes, plus the entry and eviction counts.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{Entries: len(s.entries), Evictions: s.evicted}
	for _, l := range s.nodes {
		st.Hits += l.hits
		st.Computes += l.computes
	}
	return st
}

// Keys returns the memoized entry identities as "node|key" strings,
// for diagnostics.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, strings.ReplaceAll(id, "\x00", "|"))
	}
	return out
}
