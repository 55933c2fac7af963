package pipeline

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/randx"
)

func TestMapPreservesOrder(t *testing.T) {
	ctx := context.Background()
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	// Deterministic jitter from the repo's own RNG: the delay table is
	// bit-identical across Go releases, so a failure log pins the exact
	// schedule that scrambled completion order.
	rng := randx.New(1)
	delays := make([]time.Duration, len(items))
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
	}
	out := Collect(Map(ctx, nil, "square", 8, Emit(ctx, items), func(_ context.Context, v int) int {
		time.Sleep(delays[v]) // scramble completion order
		return v * v
	}))
	if len(out) != len(items) {
		t.Fatalf("got %d outputs, want %d", len(out), len(items))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d (order not preserved)", i, v, i*i)
		}
	}
}

func TestMapRunsConcurrently(t *testing.T) {
	ctx := context.Background()
	var peak, cur atomic.Int64
	items := make([]int, 64)
	Collect(Map(ctx, nil, "", 8, Emit(ctx, items), func(_ context.Context, v int) int {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return v
	}))
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := make([]int, 10000)
	out := Map(ctx, nil, "", 4, Emit(ctx, items), func(_ context.Context, v int) int { return v })
	got := 0
	for range out {
		got++
		if got == 10 {
			cancel()
		}
	}
	if got == len(items) {
		t.Fatal("cancellation did not stop the stage")
	}
}

func TestStatsCounters(t *testing.T) {
	ctx := context.Background()
	stats := NewStats()
	items := make([]int, 100)
	Collect(Map(ctx, stats, "work", 4, Emit(ctx, items), func(_ context.Context, v int) int {
		time.Sleep(100 * time.Microsecond)
		return v
	}))
	snaps := stats.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d stages, want 1", len(snaps))
	}
	work := snaps[0]
	if work.Name != "work" || work.Workers != 4 {
		t.Fatalf("bad stage header: %+v", work)
	}
	if work.In != 100 || work.Out != 100 {
		t.Fatalf("in/out = %d/%d, want 100/100", work.In, work.Out)
	}
	if work.Busy < 10*time.Millisecond/2 {
		t.Fatalf("busy %v implausibly low", work.Busy)
	}
	if work.Wall <= 0 {
		t.Fatal("wall not recorded")
	}
	if stats.String() == "(no stages)" {
		t.Fatal("String rendered nothing")
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	st := s.Stage("x", 1)
	st.AddIn(1)
	st.AddOut(1)
	st.AddBusy(time.Second)
	st.Close()
	if got := s.Snapshot(); got != nil {
		t.Fatalf("nil stats snapshot = %v", got)
	}
}
