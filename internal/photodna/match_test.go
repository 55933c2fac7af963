package photodna

import (
	"testing"

	"repro/internal/imagex"
	"repro/internal/randx"
)

// flipBits returns h with n distinct bits of the 128-bit composite
// flipped, chosen by rng.
func flipBits(rng *randx.Rand, h RobustHash, n int) RobustHash {
	flipped := make(map[int]struct{}, n)
	for len(flipped) < n {
		b := rng.Intn(128)
		if _, dup := flipped[b]; dup {
			continue
		}
		flipped[b] = struct{}{}
		if b < 64 {
			h.A ^= 1 << uint(b)
		} else {
			h.D ^= 1 << uint(b-64)
		}
	}
	return h
}

func randHash(rng *randx.Rand) RobustHash {
	return RobustHash{A: imagex.Hash(rng.Uint64()), D: imagex.Hash(rng.Uint64())}
}

// TestMatchHashRadiusBoundary pins the radius cutoff for narrow and
// wide radii alike: an entry at distance exactly radius matches, one
// at radius+1 misses, and an empty hashlist matches nothing.
func TestMatchHashRadiusBoundary(t *testing.T) {
	rng := randx.New(0x9d5a)
	if _, ok := NewHashList(0).MatchHash(randHash(rng)); ok {
		t.Fatal("empty hashlist matched")
	}
	for _, radius := range []int{1, 3, DefaultRadius, 15, 16, 40} {
		for trial := 0; trial < 10; trial++ {
			q := randHash(rng)
			at := NewHashList(radius)
			at.AddHash(flipBits(rng, q, radius), Entry{ID: 1})
			if e, ok := at.MatchHash(q); !ok || e.ID != 1 {
				t.Fatalf("radius=%d trial=%d: entry at d=radius missed (%+v, %v)", radius, trial, e, ok)
			}
			past := NewHashList(radius)
			past.AddHash(flipBits(rng, q, radius+1), Entry{ID: 2})
			if e, ok := past.MatchHash(q); ok {
				t.Fatalf("radius=%d trial=%d: entry at d=radius+1 matched (%+v)", radius, trial, e)
			}
		}
	}
}

// TestMatchHashIndexTieBreak plants several entries equidistant from
// the query, inserted in random ID order, and checks the lowest ID
// wins — and that a farther entry never wins on a lower ID.
func TestMatchHashIndexTieBreak(t *testing.T) {
	rng := randx.New(7)
	for trial := 0; trial < 25; trial++ {
		hl := NewHashList(8)
		q := randHash(rng)
		// Five entries at distance 4, IDs inserted in random order.
		ids := rng.Perm(5)
		lowest := 5
		for _, id := range ids {
			hl.AddHash(flipBits(rng, q, 4), Entry{ID: id})
			if id < lowest {
				lowest = id
			}
		}
		// A farther entry with an even lower ID must not win.
		hl.AddHash(flipBits(rng, q, 7), Entry{ID: -1})
		e, ok := hl.MatchHash(q)
		if !ok || e.ID != 0 {
			t.Fatalf("trial %d: got (%+v, %v), want lowest equidistant ID 0", trial, e, ok)
		}
	}
}

// TestAddHashReplacementReindexes re-adds an existing hash with a new
// entry and checks matching sees only the replacement.
func TestAddHashReplacementReindexes(t *testing.T) {
	hl := NewHashList(4)
	h := RobustHash{A: 0xf0f0}
	hl.AddHash(h, Entry{ID: 9})
	hl.AddHash(h, Entry{ID: 2, Actionable: true})
	if hl.Len() != 1 {
		t.Fatalf("Len = %d after replacement, want 1", hl.Len())
	}
	e, ok := hl.MatchHash(h)
	if !ok || e.ID != 2 || !e.Actionable {
		t.Fatalf("MatchHash = (%+v, %v), want the replacing entry", e, ok)
	}
}

// TestMatchHashZeroAlloc pins the hot path allocation-free: a probe
// over a populated hashlist must not allocate.
func TestMatchHashZeroAlloc(t *testing.T) {
	rng := randx.New(3)
	hl := NewHashList(0)
	for i := 0; i < 500; i++ {
		hl.AddHash(randHash(rng), Entry{ID: i})
	}
	q := randHash(rng)
	if avg := testing.AllocsPerRun(200, func() { hl.MatchHash(q) }); avg != 0 {
		t.Fatalf("MatchHash allocates %.1f per op, want 0", avg)
	}
}
