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
	out := Collect(Map(ctx, "square", 8, Emit(ctx, items), func(_ context.Context, v int) int {
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
	Collect(Map(ctx, "", 8, Emit(ctx, items), func(_ context.Context, v int) int {
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
	out := Map(ctx, "", 4, Emit(ctx, items), func(_ context.Context, v int) int { return v })
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
