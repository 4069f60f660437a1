package cosim

import (
	"context"
	"runtime"
	"testing"
)

// fuzzSeedCount is the fixed seed list of the per-seed cost checks: seeds
// 1..64 at the default 40 segments, every 8th in smp mode — the same mix as
// a fuzz-cosim benchmark round.
const fuzzSeedCount = 64

func fuzzSeedOpts(i int) Options {
	if i%8 == 7 {
		return Options{Modes: Modes{SMP: true}}
	}
	return Options{}
}

// fuzzSeed runs the i-th seed of the fixed list and fails tb on any error,
// timeout or divergence.
func fuzzSeed(tb testing.TB, i int) {
	fr := FuzzContext(context.Background(), int64(1+i%fuzzSeedCount), 0, fuzzSeedOpts(i))
	if fr.Err != nil || fr.TimedOut || fr.Diverged {
		tb.Fatalf("seed %d: err=%v timedout=%v diverged=%v\n%s", fr.Seed, fr.Err, fr.TimedOut, fr.Diverged, fr.Result.Report)
	}
}

// BenchmarkFuzzSeed is the L1 rung of the perf ladder: one cosim fuzz seed
// per op (generate, assemble, session set-up, lock-step run, check), with
// B/op and allocs/op.
func BenchmarkFuzzSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fuzzSeed(b, i)
	}
}

// fuzzSeedAllocBudget bounds the bytes one fixed-list seed may allocate on
// average. A seed allocates about 0.93 MB; eagerly built L2 lines alone
// would add 1.5 MB, so the budget catches their return with headroom for
// runtime noise (the race detector adds a few percent).
const fuzzSeedAllocBudget = 1_250_000

// TestFuzzSeedAllocBudget gates the per-seed allocation volume over the fixed
// seed list: heap bytes allocated repeat almost exactly run to run, so a
// regressed fixed cost per seed shows as a hard failure, not as noise.
func TestFuzzSeedAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < fuzzSeedCount; i++ {
		fuzzSeed(t, i)
	}
	runtime.ReadMemStats(&after)
	perSeed := (after.TotalAlloc - before.TotalAlloc) / fuzzSeedCount
	t.Logf("%d bytes allocated per seed (budget %d)", perSeed, fuzzSeedAllocBudget)
	if perSeed > fuzzSeedAllocBudget {
		t.Fatalf("%d bytes allocated per seed, over the %d budget", perSeed, fuzzSeedAllocBudget)
	}
}
