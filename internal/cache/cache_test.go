package cache

import (
	"math/rand"
	"testing"
)

func cfg32k() Config {
	return Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 2, Parity: true}
}

func TestFillAndLookup(t *testing.T) {
	c := New(cfg32k())
	if c.Lookup(0x1000) != nil {
		t.Fatal("empty cache must miss")
	}
	c.Fill(0x1000, Exclusive, 10, false)
	l := c.Lookup(0x1040 - 1) // same 64B line as 0x1000
	if l == nil || l.State != Exclusive || l.ReadyAt != 10 {
		t.Fatalf("lookup after fill: %+v", l)
	}
	if c.Lookup(0x1040) != nil {
		t.Fatal("next line must miss")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 64, Ways: 4, LineBytes: 64, HitLatency: 1})
	// one set of 4 ways: fill 4 lines mapping to set 0
	for i := 0; i < 4; i++ {
		c.Fill(uint64(i)*64*1, Exclusive, 0, false) // sets = 1, all collide
	}
	// touch line 0 so line 1 becomes LRU
	c.Touch(c.Lookup(0))
	c.Fill(4*64, Exclusive, 0, false)
	if c.Lookup(0) == nil {
		t.Fatal("recently used line evicted")
	}
	if c.Lookup(64) != nil {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestDirtyWritebackOnEvict(t *testing.T) {
	c := New(Config{SizeBytes: 64, Ways: 1, LineBytes: 64, HitLatency: 1})
	c.Fill(0, Modified, 0, false)
	_, had, wb := c.Fill(64, Exclusive, 0, false)
	if !had || !wb {
		t.Fatalf("evicting a Modified line must write back (had=%v wb=%v)", had, wb)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestPrefetchAccounting(t *testing.T) {
	c := New(cfg32k())
	c.Fill(0x2000, Shared, 100, true)
	if c.Stats.PrefetchFills != 1 {
		t.Fatal("prefetch fill not counted")
	}
	l := c.Lookup(0x2000)
	c.Touch(l)
	if c.Stats.PrefetchUseful != 1 || l.Prefetched {
		t.Fatal("demand hit on prefetched line must count as useful")
	}
	// wasted prefetch: fill and evict unused
	small := New(Config{SizeBytes: 64, Ways: 1, LineBytes: 64, HitLatency: 1})
	small.Fill(0, Shared, 0, true)
	small.Fill(64, Shared, 0, false)
	if small.Stats.PrefetchWasted != 1 {
		t.Fatal("evicted unused prefetch must count as wasted")
	}
}

func TestInFlightFillMerge(t *testing.T) {
	c := New(cfg32k())
	c.Fill(0x3000, Exclusive, 500, false) // fill completes at cycle 500
	l := c.Lookup(0x3000)
	if l.ReadyAt != 500 {
		t.Fatal("readyAt lost")
	}
}

func TestParityAndECC(t *testing.T) {
	c := New(cfg32k())
	c.Fill(0x4000, Exclusive, 0, false)
	if !c.VerifyParity(0x4000) {
		t.Fatal("fresh line must pass parity")
	}
	if !c.InjectParityError(0x4000) {
		t.Fatal("inject failed")
	}
	if c.VerifyParity(0x4000) {
		t.Fatal("corrupted line must fail parity")
	}
	if c.Stats.ParityErrors != 1 {
		t.Fatal("parity error not counted")
	}
	// ECC corrects
	e := New(Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 2, Parity: true, ECC: true})
	e.Fill(0x4000, Exclusive, 0, false)
	e.InjectParityError(0x4000)
	if !e.VerifyParity(0x4000) {
		t.Fatal("ECC must correct the error")
	}
	if e.Stats.ECCCorrected != 1 {
		t.Fatal("correction not counted")
	}
}

func TestInvalidateAllAndCleanAll(t *testing.T) {
	c := New(cfg32k())
	for i := 0; i < 16; i++ {
		c.Fill(uint64(i)*64, Modified, 0, false)
	}
	if n := c.CleanAll(); n != 16 {
		t.Fatalf("cleaned %d lines, want 16", n)
	}
	if c.CleanAll() != 0 {
		t.Fatal("second clean should find nothing dirty")
	}
	c.InvalidateAll()
	for i := 0; i < 16; i++ {
		if c.Lookup(uint64(i)*64) != nil {
			t.Fatal("line survived invalidate-all")
		}
	}
}

func TestSetIndexDisjoint(t *testing.T) {
	// property: two addresses in different sets never evict each other
	c := New(Config{SizeBytes: 8 << 10, Ways: 2, LineBytes: 64, HitLatency: 1})
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1000; trial++ {
		a := uint64(rng.Intn(1 << 20))
		c.Fill(a, Exclusive, 0, false)
		if c.Lookup(a) == nil {
			t.Fatal("just-filled line must be present")
		}
	}
}

func TestMissRateCounters(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("idle miss rate must be 0")
	}
	s.Accesses, s.Misses = 10, 3
	if s.MissRate() != 0.3 {
		t.Fatalf("miss rate = %f", s.MissRate())
	}
}

// TestUntouchedCacheIsFree checks that sets are allocated on first fill: on a
// fresh cache every whole-cache walk and every lookup sees nothing and
// allocates nothing.
func TestUntouchedCacheIsFree(t *testing.T) {
	c := New(Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, HitLatency: 10, ECC: true, Parity: true})
	allocs := testing.AllocsPerRun(10, func() {
		if c.Lookup(0x12340) != nil {
			t.Fatal("fresh cache must miss")
		}
		c.InvalidateAll()
		if n := c.CleanAll(); n != 0 {
			t.Fatalf("fresh cache cleaned %d lines", n)
		}
		c.ForEachValid(func(addr uint64) { t.Fatalf("fresh cache has valid line %#x", addr) })
	})
	if allocs != 0 {
		t.Fatalf("untouched cache allocated %.0f times per walk", allocs)
	}
	if c.Stats != (Stats{}) {
		t.Fatalf("untouched cache counted events: %+v", c.Stats)
	}
}

// TestForEachValidOrder fills lines across sets in scrambled order and
// requires ForEachValid to visit them set-major, way-minor: ascending set
// index, and within a set in the order the ways were filled.
func TestForEachValidOrder(t *testing.T) {
	const sets, ways = 64, 4
	c := New(Config{SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64, HitLatency: 1})
	rng := rand.New(rand.NewSource(7))
	var bySet [sets][]uint64
	for _, n := range rng.Perm(sets * 3) {
		set, tagHi := n%sets, uint64(n/sets)
		if set%5 == 0 {
			continue // leave some sets untouched
		}
		addr := (tagHi*sets + uint64(set)) * 64
		c.Fill(addr, Exclusive, 0, false)
		bySet[set] = append(bySet[set], addr)
	}
	var want, got []uint64
	for _, s := range bySet {
		want = append(want, s...)
	}
	c.ForEachValid(func(addr uint64) { got = append(got, addr) })
	if len(got) != len(want) {
		t.Fatalf("visited %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit %d: got %#x, want %#x (full order %#x)", i, got[i], want[i], got)
		}
	}
}

// TestLinePointerStableAcrossFills holds a line pointer while other sets are
// allocated and filled: the pointer must still address the live line.
func TestLinePointerStableAcrossFills(t *testing.T) {
	c := New(cfg32k())
	c.Fill(0x40, Exclusive, 7, false)
	l := c.Lookup(0x40)
	for a := uint64(0x80); a < 0x80+64*64; a += 64 {
		c.Fill(a, Shared, 0, false)
	}
	l.Dirty = true
	if got := c.Lookup(0x40); got != l || !got.Dirty || got.ReadyAt != 7 {
		t.Fatalf("line pointer went stale across fills: held %p, lookup %p %+v", l, got, got)
	}
}
