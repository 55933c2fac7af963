// Package socialgraph implements §6.1's social-network construction
// and metrics: "we built a network from the public conversations of
// members in the forum, i.e. who responded to whom in the threads. We
// consider actor A has responded to actor B if either A explicitly
// quotes a post made by B in a reply or if A directly posts a reply in
// a thread initiated by B, without quoting any other post." Nodes are
// actors, edges are interactions weighted by the number of responses.
//
// On top of the graph the package computes the paper's metrics:
// eigenvector centrality (influence) via power iteration, and the
// popularity indices (H-index and i-10/i-50/i-100 over replies to
// threads an actor started).
package socialgraph

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/forum"
)

// Graph is a weighted directed interaction graph over forum actors.
type Graph struct {
	index  map[forum.ActorID]int
	actors []forum.ActorID
	// out[i][j] = number of responses actor i made to actor j.
	out []map[int]float64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[forum.ActorID]int)}
}

// node returns (creating if needed) the dense index of an actor.
func (g *Graph) node(a forum.ActorID) int {
	if i, ok := g.index[a]; ok {
		return i
	}
	i := len(g.actors)
	g.index[a] = i
	g.actors = append(g.actors, a)
	g.out = append(g.out, make(map[int]float64))
	return i
}

// AddResponse records that a responded to b. Both actors become nodes;
// self-responses add no edge (quoting yourself is not an interaction).
func (g *Graph) AddResponse(a, b forum.ActorID) {
	ai := g.node(a)
	bi := g.node(b)
	if a == b {
		return
	}
	g.out[ai][bi]++
}

// NumActors returns the number of nodes.
func (g *Graph) NumActors() int { return len(g.actors) }

// NumEdges returns the number of distinct directed edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, m := range g.out {
		n += len(m)
	}
	return n
}

// Weight returns the response count from a to b.
func (g *Graph) Weight(a, b forum.ActorID) float64 {
	ai, ok := g.index[a]
	if !ok {
		return 0
	}
	bi, ok := g.index[b]
	if !ok {
		return 0
	}
	return g.out[ai][bi]
}

// Actors returns all node actor IDs in insertion order.
func (g *Graph) Actors() []forum.ActorID {
	out := make([]forum.ActorID, len(g.actors))
	copy(out, g.actors)
	return out
}

// Build constructs the interaction graph from the given threads using
// the paper's response rule.
func Build(store *forum.Store, threads []forum.ThreadID) *Graph {
	g := NewGraph()
	for _, tid := range threads {
		var starter forum.ActorID // IDs are 1-based: 0 until the opener
		for p := range store.PostsInThread(tid) {
			if starter == 0 {
				starter = p.Author
				g.node(starter) // thread authors are nodes even with no replies
				continue
			}
			target := starter
			if p.Quotes != 0 {
				target = store.Post(p.Quotes).Author
			}
			g.AddResponse(p.Author, target)
		}
	}
	return g
}

// EigenvectorCentrality computes eigenvector centrality by power
// iteration on the symmetrised weight matrix (an interaction binds
// both endpoints). The result is normalised to max = 1. maxIter and
// tol bound the iteration (100 and 1e-9 if non-positive).
func (g *Graph) EigenvectorCentrality(maxIter int, tol float64) map[forum.ActorID]float64 {
	if maxIter <= 0 {
		maxIter = 100
	}
	if tol <= 0 {
		tol = 1e-9
	}
	n := len(g.actors)
	result := make(map[forum.ActorID]float64, n)
	if n == 0 {
		return result
	}
	sym := g.symmetric()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	next := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		// Rows in ascending i: every next[j] sums its terms in the same
		// order whatever order a row lists its columns in.
		for i := 0; i < n; i++ {
			xi := x[i]
			if xi == 0 {
				continue
			}
			for k := sym.start[i]; k < sym.start[i+1]; k++ {
				next[sym.col[k]] += sym.w[k] * xi
			}
		}
		norm := 0.0
		for _, v := range next {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		diff := 0.0
		for i := range next {
			next[i] /= norm
			diff += math.Abs(next[i] - x[i])
		}
		x, next = next, x
		if diff < tol {
			break
		}
	}
	max := 0.0
	for _, v := range x {
		if v > max {
			max = v
		}
	}
	for i, a := range g.actors {
		if max > 0 {
			result[a] = x[i] / max
		} else {
			result[a] = 0
		}
	}
	return result
}

// csr is a sparse matrix in compressed-sparse-row form: row i holds
// columns col[start[i]:start[i+1]] with weights w[start[i]:start[i+1]].
type csr struct {
	start []int
	col   []int32
	w     []float64
}

// symmetric builds the symmetrised weight matrix w[i][j] = out[i][j] +
// out[j][i] (an interaction binds both endpoints) as CSR rows sorted by
// column. Weights are integer response counts, so the sums are exact.
func (g *Graph) symmetric() csr {
	n := len(g.actors)
	// Bucket both directions of every edge by row, then sort each row
	// by column and merge the reciprocal pairs.
	type entry struct {
		col int32
		w   float64
	}
	type edge struct {
		i, j int32
		w    float64
	}
	edges := make([]edge, 0, g.NumEdges())
	start := make([]int, n+1)
	for i, m := range g.out {
		start[i+1] += len(m)
		for j, w := range m {
			edges = append(edges, edge{int32(i), int32(j), w})
			start[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	entries := make([]entry, start[n])
	fill := slices.Clone(start[:n])
	for _, e := range edges {
		entries[fill[e.i]] = entry{e.j, e.w}
		fill[e.i]++
		entries[fill[e.j]] = entry{e.i, e.w}
		fill[e.j]++
	}
	m := csr{start: make([]int, n+1), col: make([]int32, 0, len(entries)), w: make([]float64, 0, len(entries))}
	for i := 0; i < n; i++ {
		row := entries[start[i]:start[i+1]]
		slices.SortFunc(row, func(a, b entry) int { return cmp.Compare(a.col, b.col) })
		for k, e := range row {
			if k > 0 && e.col == row[k-1].col {
				m.w[len(m.w)-1] += e.w
				continue
			}
			m.col = append(m.col, e.col)
			m.w = append(m.w, e.w)
		}
		m.start[i+1] = len(m.col)
	}
	return m
}

// Popularity holds the reply-based popularity indices of one actor.
type Popularity struct {
	// H is the H-index: the actor has H threads with at least H
	// replies each.
	H int
	// I10, I50 and I100 count threads with at least 10, 50 and 100
	// replies.
	I10, I50, I100 int
	// Threads is the number of threads the actor started (within the
	// analysed set).
	Threads int
}

// HIndex computes the H-index of a reply-count list.
func HIndex(replyCounts []int) int {
	sorted := make([]int, len(replyCounts))
	copy(sorted, replyCounts)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	h := 0
	for i, c := range sorted {
		if c >= i+1 {
			h = i + 1
		} else {
			break
		}
	}
	return h
}

// ComputePopularity derives each thread starter's popularity metrics
// over the given threads.
func ComputePopularity(store *forum.Store, threads []forum.ThreadID) map[forum.ActorID]Popularity {
	replies := make(map[forum.ActorID][]int)
	for _, tid := range threads {
		th := store.Thread(tid)
		replies[th.Author] = append(replies[th.Author], store.NumReplies(tid))
	}
	out := make(map[forum.ActorID]Popularity, len(replies))
	for a, counts := range replies {
		p := Popularity{H: HIndex(counts), Threads: len(counts)}
		for _, c := range counts {
			if c >= 10 {
				p.I10++
			}
			if c >= 50 {
				p.I50++
			}
			if c >= 100 {
				p.I100++
			}
		}
		out[a] = p
	}
	return out
}

// TopByCentrality returns the k actors with the highest centrality,
// descending (ties by actor ID for determinism).
func TopByCentrality(c map[forum.ActorID]float64, k int) []forum.ActorID {
	type pair struct {
		a forum.ActorID
		v float64
	}
	pairs := make([]pair, 0, len(c))
	for a, v := range c {
		pairs = append(pairs, pair{a, v})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		return pairs[i].a < pairs[j].a
	})
	if k > len(pairs) {
		k = len(pairs)
	}
	out := make([]forum.ActorID, k)
	for i := 0; i < k; i++ {
		out[i] = pairs[i].a
	}
	return out
}
