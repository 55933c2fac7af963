// Package artefact is a small dependency-graph engine for the study's
// named artefacts (Table 1, the §4 classifier, Table 5 provenance,
// the §5/§6 analyses, ...). A Graph holds typed nodes keyed by stable
// names with declared dependencies; Evaluate computes a requested set
// of targets — and nothing outside their transitive closure — running
// independent nodes concurrently on top of internal/pipeline, with
// per-node memoization in a shared Store keyed by each node's own
// canonical request key.
//
// The engine is what turns the monolithic study into a composable
// one: a service can answer "just Table 5" without paying for the
// actor analysis, and two requests for different tables of the same
// world share the common prefix of the graph through the Store's
// in-flight deduplication.
package artefact

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
)

// Deps carries the resolved dependency values of one node computation,
// keyed by dependency name.
type Deps map[string]any

// Get returns the named dependency value as T. It panics on a missing
// name or a type mismatch — both are programming errors in the node
// registry (an undeclared dependency, or a node whose value type
// drifted from its consumers).
func Get[T any](d Deps, name string) T {
	v, ok := d[name]
	if !ok {
		panic(fmt.Sprintf("artefact: dependency %q was not declared", name))
	}
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("artefact: dependency %q is %T, not %T", name, v, t))
	}
	return t
}

// Node is one named computation over an environment E (for the study
// graph, the *core.Study being evaluated).
type Node[E any] struct {
	// Name is the node's stable identity in the graph.
	Name string
	// Deps names the nodes whose values Compute consumes.
	Deps []string
	// Key returns the memo key for the node under env — the canonical
	// projection of the request onto the parameters that actually
	// determine this node's value. Nodes with equal keys must compute
	// equal values. A nil Key (or an empty string) disables
	// memoization for the node.
	Key func(env E) string
	// Compute produces the node's value from its dependency values.
	Compute func(ctx context.Context, env E, deps Deps) (any, error)
}

// Graph is a registry of nodes forming a DAG. Register every node
// first; Evaluate may then run concurrently from any number of
// goroutines.
type Graph[E any] struct {
	nodes map[string]Node[E]
	order []string // registration order
}

// NewGraph returns an empty graph.
func NewGraph[E any]() *Graph[E] {
	return &Graph[E]{nodes: make(map[string]Node[E])}
}

// Register adds a node. Names must be unique and non-empty and
// Compute must be set; dependencies may be registered in any order
// (they are validated by Evaluate's closure walk).
func (g *Graph[E]) Register(n Node[E]) error {
	if n.Name == "" {
		return fmt.Errorf("artefact: node with empty name")
	}
	if n.Compute == nil {
		return fmt.Errorf("artefact: node %q has no Compute", n.Name)
	}
	if _, dup := g.nodes[n.Name]; dup {
		return fmt.Errorf("artefact: node %q registered twice", n.Name)
	}
	g.nodes[n.Name] = n
	g.order = append(g.order, n.Name)
	return nil
}

// MustRegister is Register, panicking on error — for static
// registries built at package init.
func (g *Graph[E]) MustRegister(n Node[E]) {
	if err := g.Register(n); err != nil {
		panic(err)
	}
}

// Names returns every node name in registration order.
func (g *Graph[E]) Names() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	return out
}

// Deps returns the declared dependencies of every node, keyed by node
// name — the graph shape, for consumers like the trace critical-path
// analyzer that need edges without values.
func (g *Graph[E]) Deps() map[string][]string {
	out := make(map[string][]string, len(g.nodes))
	for name, n := range g.nodes {
		out[name] = append([]string(nil), n.Deps...)
	}
	return out
}

// Closure returns the transitive dependency closure of the targets in
// topological order (dependencies before dependents). Unknown names
// and dependency cycles are errors.
func (g *Graph[E]) Closure(targets ...string) ([]string, error) {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(g.nodes))
	var order []string
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("artefact: dependency cycle through %q", name)
		}
		n, ok := g.nodes[name]
		if !ok {
			return fmt.Errorf("artefact: unknown node %q", name)
		}
		state[name] = visiting
		for _, d := range n.Deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[name] = done
		order = append(order, name)
		return nil
	}
	for _, t := range targets {
		if err := visit(t); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Evaluate computes the targets and their transitive closure,
// returning every resolved value by node name. Independent nodes run
// concurrently; each node starts as soon as its dependencies resolve.
// Values memoize into store by each node's Key — a nil store gets a
// private, evaluation-local store, so shared dependencies still
// compute exactly once. The store also records every node's outcome
// (Store.Nodes). An empty target list evaluates the whole graph. The
// first node error (or ctx cancellation) aborts the evaluation.
func (g *Graph[E]) Evaluate(ctx context.Context, env E, store *Store, targets ...string) (map[string]any, error) {
	if len(targets) == 0 {
		targets = g.Names()
	}
	needed, err := g.Closure(targets...)
	if err != nil {
		return nil, err
	}
	if store == nil {
		store = NewStore(len(needed))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type slot struct {
		done chan struct{}
		val  any
		err  error
	}
	slots := make(map[string]*slot, len(needed))
	for _, name := range needed {
		slots[name] = &slot{done: make(chan struct{})}
	}
	var group pipeline.Group
	for _, name := range needed {
		n := g.nodes[name]
		sl := slots[name]
		group.Go(func() {
			defer close(sl.done)
			deps := make(Deps, len(n.Deps))
			for _, d := range n.Deps {
				dsl := slots[d]
				select {
				case <-dsl.done:
				case <-ctx.Done():
					sl.err = ctx.Err()
					return
				}
				if dsl.err != nil {
					sl.err = fmt.Errorf("artefact: %s: dependency %s: %w", n.Name, d, dsl.err)
					return
				}
				deps[d] = dsl.val
			}
			key := ""
			if n.Key != nil {
				key = n.Key(env)
			}
			val, err := store.resolve(ctx, n.Name, key, func(ctx context.Context) (any, error) {
				return n.Compute(ctx, env, deps)
			})
			sl.val, sl.err = val, err
			if err != nil {
				cancel() // wind down sibling nodes
			}
		})
	}
	group.Wait()

	// Report the first error in topological order, unwrapping the
	// dependency chain to the node that actually failed.
	for _, name := range needed {
		if err := slots[name].err; err != nil {
			return nil, err
		}
	}
	out := make(map[string]any, len(needed))
	for _, name := range needed {
		out[name] = slots[name].val
	}
	return out, nil
}
