package pipeline

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stats collects per-stage metrics for one pipeline run. All methods
// are safe for concurrent use; a nil *Stats is a valid no-op sink, so
// stages can run un-instrumented.
type Stats struct {
	mu     sync.Mutex
	stages []*StageStats
}

// NewStats returns an empty metrics collector.
func NewStats() *Stats { return &Stats{} }

// Stage registers a new stage and starts its wall clock. A nil *Stats
// returns a nil *StageStats, whose methods are all no-ops.
func (s *Stats) Stage(name string, workers int) *StageStats {
	if s == nil {
		return nil
	}
	st := &StageStats{name: name, workers: workers, started: time.Now()}
	s.mu.Lock()
	s.stages = append(s.stages, st)
	s.mu.Unlock()
	return st
}

// Record appends an already-completed stage's counters — for engines
// that time work themselves (the artefact graph's per-node timings)
// rather than streaming items through a stage.
func (s *Stats) Record(name string, workers int, in, out int64, wall, busy time.Duration) {
	if s == nil {
		return
	}
	st := &StageStats{name: name, workers: workers, started: time.Now().Add(-wall)}
	st.in.Store(in)
	st.out.Store(out)
	st.busy.Store(int64(busy))
	st.wall.Store(int64(wall))
	s.mu.Lock()
	s.stages = append(s.stages, st)
	s.mu.Unlock()
}

// StageStats accumulates one stage's counters. The zero of every
// counter is valid; a nil receiver is a no-op.
type StageStats struct {
	name    string
	workers int
	started time.Time

	in   atomic.Int64
	out  atomic.Int64
	busy atomic.Int64 // nanoseconds spent inside stage functions
	wall atomic.Int64 // nanoseconds from Stage() to Close()
}

// AddIn records n items entering the stage.
func (st *StageStats) AddIn(n int64) {
	if st != nil {
		st.in.Add(n)
	}
}

// AddOut records n items leaving the stage.
func (st *StageStats) AddOut(n int64) {
	if st != nil {
		st.out.Add(n)
	}
}

// AddBusy records time spent doing stage work.
func (st *StageStats) AddBusy(d time.Duration) {
	if st != nil {
		st.busy.Add(int64(d))
	}
}

// Close stops the stage's wall clock. Later calls keep the first value.
func (st *StageStats) Close() {
	if st != nil {
		st.wall.CompareAndSwap(0, int64(time.Since(st.started)))
	}
}

// StageSnapshot is a point-in-time copy of one stage's counters.
type StageSnapshot struct {
	// Name labels the stage.
	Name string
	// Workers is the stage's worker-pool size.
	Workers int
	// In and Out count items that entered and left the stage.
	In, Out int64
	// Wall is the stage's start-to-close duration (or time running so
	// far, if the stage has not closed).
	Wall time.Duration
	// Busy is the total time workers spent inside the stage function,
	// summed across workers (Busy > Wall means real parallelism).
	Busy time.Duration
}

// Snapshot copies every stage's counters, in registration order.
func (s *Stats) Snapshot() []StageSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StageSnapshot, 0, len(s.stages))
	for _, st := range s.stages {
		wall := time.Duration(st.wall.Load())
		if wall == 0 {
			wall = time.Since(st.started)
		}
		out = append(out, StageSnapshot{
			Name:    st.name,
			Workers: st.workers,
			In:      st.in.Load(),
			Out:     st.out.Load(),
			Wall:    wall,
			Busy:    time.Duration(st.busy.Load()),
		})
	}
	return out
}

// String renders the snapshot as an aligned table, one stage per line.
func (s *Stats) String() string {
	snaps := s.Snapshot()
	if len(snaps) == 0 {
		return "(no stages)"
	}
	nameW := len("stage")
	for _, sn := range snaps {
		if len(sn.Name) > nameW {
			nameW = len(sn.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %7s %8s %8s %12s %12s\n", nameW, "stage", "workers", "in", "out", "wall", "busy")
	for _, sn := range snaps {
		fmt.Fprintf(&b, "%-*s %7d %8d %8d %12s %12s\n",
			nameW, sn.Name, sn.Workers, sn.In, sn.Out,
			sn.Wall.Round(time.Microsecond), sn.Busy.Round(time.Microsecond))
	}
	return b.String()
}
