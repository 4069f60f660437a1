package coherence

import (
	"math/rand"
	"runtime"
	"testing"

	"xt910/internal/cache"
	"xt910/internal/mem"
)

func l1cfg() cache.Config {
	return cache.Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 2}
}

func newCluster(t *testing.T, cores int) (*L2, []*L1D, *mem.DRAM) {
	t.Helper()
	dram := mem.NewDRAM()
	l2 := NewL2(cache.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, HitLatency: 10, ECC: true, Parity: true}, dram)
	l1s := make([]*L1D, cores)
	for i := range l1s {
		l1s[i] = NewL1D(l1cfg(), l2)
	}
	return l2, l1s, dram
}

func TestReadMissGetsExclusive(t *testing.T) {
	_, l1s, _ := newCluster(t, 2)
	done, hit := l1s[0].Access(0x1000, false, 100)
	if hit {
		t.Fatal("cold access must miss")
	}
	if done < 300 {
		t.Fatalf("cold miss must pay DRAM latency, done=%d", done)
	}
	l := l1s[0].Cache.Lookup(0x1000)
	if l.State != cache.Exclusive {
		t.Fatalf("sole reader should be Exclusive, got %v", l.State)
	}
}

func TestSecondReaderDowngradesToShared(t *testing.T) {
	_, l1s, _ := newCluster(t, 2)
	l1s[0].Access(0x1000, false, 0)
	l1s[1].Access(0x1000, false, 1000)
	if st := l1s[0].Cache.Lookup(0x1000).State; st != cache.Shared {
		t.Fatalf("first reader should be downgraded E->S, got %v", st)
	}
	if st := l1s[1].Cache.Lookup(0x1000).State; st != cache.Shared {
		t.Fatalf("second reader should be Shared, got %v", st)
	}
}

func TestWriteInvalidatesOthers(t *testing.T) {
	_, l1s, _ := newCluster(t, 4)
	for _, d := range l1s {
		d.Access(0x2000, false, 0)
	}
	l1s[2].Access(0x2000, true, 1000)
	for i, d := range l1s {
		l := d.Cache.Lookup(0x2000)
		if i == 2 {
			if l == nil || l.State != cache.Modified {
				t.Fatalf("writer must hold Modified")
			}
		} else if l != nil && l.State != cache.Invalid {
			t.Fatalf("core %d must be invalidated, has %v", i, l.State)
		}
	}
}

func TestRemoteReadOfDirtyLineMakesOwned(t *testing.T) {
	l2, l1s, _ := newCluster(t, 2)
	l1s[0].Access(0x3000, true, 0) // M in core 0
	l1s[1].Access(0x3000, false, 1000)
	if st := l1s[0].Cache.Lookup(0x3000).State; st != cache.Owned {
		t.Fatalf("dirty owner should become Owned (MOSEI), got %v", st)
	}
	if st := l1s[1].Cache.Lookup(0x3000).State; st != cache.Shared {
		t.Fatalf("reader should be Shared, got %v", st)
	}
	if l2.Stats.DirtyTransfers != 1 {
		t.Fatalf("dirty transfer not counted: %+v", l2.Stats)
	}
}

func TestSnoopFilterSuppressesIrrelevantSnoops(t *testing.T) {
	l2, l1s, _ := newCluster(t, 4)
	l1s[0].Access(0x4000, false, 0)
	// cores 1..3 fetch a different line: snoops toward non-sharers filtered
	l1s[1].Access(0x8000, false, 100)
	before := l2.Stats.SnoopsSent
	l1s[2].Access(0xC000, false, 200)
	if l2.Stats.SnoopsSent != before {
		t.Fatal("no snoops should be sent for unshared lines")
	}
	if l2.Stats.SnoopsFiltered == 0 {
		t.Fatal("snoop filter should be suppressing broadcasts")
	}
}

func TestL2HitFasterThanDRAM(t *testing.T) {
	_, l1s, _ := newCluster(t, 2)
	l1s[0].Access(0x5000, false, 0) // brings into L2
	// evict from core1's view: core1 cold, but line is in L2 now
	done, _ := l1s[1].Access(0x5000, false, 10000)
	if done-10000 > 60 {
		t.Fatalf("L2 hit should be fast, took %d cycles", done-10000)
	}
}

func TestInclusionInvariantRandomWorkload(t *testing.T) {
	l2, l1s, _ := newCluster(t, 4)
	rng := rand.New(rand.NewSource(2020))
	for i := 0; i < 20000; i++ {
		core := rng.Intn(4)
		addr := uint64(rng.Intn(1<<22)) &^ 63
		l1s[core].Access(addr, rng.Intn(3) == 0, uint64(i)*4)
	}
	if v := l2.CheckInclusion(); v != 0 {
		t.Fatalf("inclusion violated for %d lines", v)
	}
}

func TestSingleWriterInvariantRandomWorkload(t *testing.T) {
	// MOSEI safety: at most one L1 holds a line in M or E; if any holds
	// M/E, no other holds it in any valid state.
	_, l1s, _ := newCluster(t, 4)
	rng := rand.New(rand.NewSource(777))
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	for i := 0; i < 20000; i++ {
		core := rng.Intn(4)
		addr := addrs[rng.Intn(len(addrs))]
		l1s[core].Access(addr, rng.Intn(2) == 0, uint64(i)*4)
		for _, a := range addrs {
			owners, holders := 0, 0
			for _, d := range l1s {
				l := d.Cache.Lookup(a)
				if l == nil || l.State == cache.Invalid {
					continue
				}
				holders++
				if l.State == cache.Modified || l.State == cache.Exclusive {
					owners++
				}
			}
			if owners > 1 {
				t.Fatalf("step %d: line %#x has %d M/E owners", i, a, owners)
			}
			if owners == 1 && holders > 1 {
				t.Fatalf("step %d: line %#x owned exclusively but %d holders", i, a, holders)
			}
		}
	}
}

func TestBackInvalidationOnL2Evict(t *testing.T) {
	dram := mem.NewDRAM()
	// tiny L2: 4 lines, direct-mapped sets of 1 way
	l2 := NewL2(cache.Config{SizeBytes: 4 * 64, Ways: 1, LineBytes: 64, HitLatency: 5}, dram)
	d := NewL1D(l1cfg(), l2)
	d.Access(0, false, 0)
	// fill L2 set 0 with a conflicting line -> back-invalidate L1 copy
	d.Access(4*64, false, 1000)
	if l := d.Cache.Lookup(0); l != nil && l.State != cache.Invalid {
		t.Fatalf("L1 must be back-invalidated on inclusive L2 eviction")
	}
	if l2.Stats.BackInvals == 0 {
		t.Fatal("back-invalidation not counted")
	}
}

func TestL2Prefetch(t *testing.T) {
	l2, l1s, dram := newCluster(t, 1)
	l2.Prefetch(0x9000, 0)
	if dram.Accesses != 1 {
		t.Fatal("prefetch should access DRAM")
	}
	// demand access long after the prefetch completes: only L2 hit latency
	done, _ := l1s[0].Access(0x9000, false, 5000)
	if done-5000 > 60 {
		t.Fatalf("prefetched line should hit in L2, took %d", done-5000)
	}
}

func TestNcoreCrossClusterCoherence(t *testing.T) {
	dram := mem.NewDRAM()
	ncore := NewNcore(dram)
	var l1s []*L1D
	for c := 0; c < 2; c++ {
		l2 := NewL2(cache.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, HitLatency: 10}, dram)
		ncore.Attach(l2)
		l1s = append(l1s, NewL1D(l1cfg(), l2))
	}
	l1s[0].Access(0xA000, true, 0) // cluster 0 dirties the line
	l1s[1].Access(0xA000, true, 1000)
	// cluster 0's copy must be gone
	if l := l1s[0].Cache.Lookup(0xA000); l != nil && l.State != cache.Invalid {
		t.Fatalf("cross-cluster exclusive fetch must invalidate remote hierarchy")
	}
	if ncore.Stats.Invalidations == 0 {
		t.Fatal("ncore invalidations not counted")
	}
	if ncore.Clusters() != 2 {
		t.Fatal("cluster count")
	}
}

func TestWritebackPath(t *testing.T) {
	dram := mem.NewDRAM()
	l2 := NewL2(cache.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, HitLatency: 10}, dram)
	// L1 with one set: forces evictions
	d := NewL1D(cache.Config{SizeBytes: 2 * 64, Ways: 2, LineBytes: 64, HitLatency: 2}, l2)
	d.Access(0, true, 0)
	d.Access(64*128, true, 100) // different L1 set index? with 1 set they collide
	d.Access(64*256, true, 200)
	// at least one dirty eviction must have flowed back to L2
	if l := l2.Cache.Lookup(0); l == nil {
		t.Fatal("line 0 must remain in inclusive L2")
	}
}

// TestNewL2AllocatesLazily pins the set-on-first-fill cost model: building
// the cosim-sized L2 (2 MB, 16-way, 64 B lines — 32768 lines) must not pay
// for the lines up front.
func TestNewL2AllocatesLazily(t *testing.T) {
	dram := mem.NewDRAM()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l2 := NewL2(cache.Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, HitLatency: 10, ECC: true, Parity: true}, dram)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l2)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("NewL2 allocated %d bytes, want < 64 KB", n)
	}
}
