package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xt910/internal/asm"
	"xt910/internal/cache"
	"xt910/internal/coherence"
	"xt910/internal/core"
	"xt910/internal/cosim"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/isa"
)

const (
	fuzzRound   = 64 // seeds per round
	fuzzSMPEach = 8  // every 8th seed of a round runs in smp mode
	seedTimeout = 30 * time.Second
	cosimStack  = 0x80000 // cosim's single-hart stack top
	soloCycles  = 10_000_000
)

// fuzzSeed is the seed of op i in round r: each --seed owns a disjoint range.
func fuzzSeed(seed int64, r, i int) int64 { return seed*1_000_000 + int64(r*fuzzRound+i) }

func fuzzOpts(i int) cosim.Options {
	if i%fuzzSMPEach == fuzzSMPEach-1 {
		return cosim.Options{Modes: cosim.Modes{SMP: true}}
	}
	return cosim.Options{}
}

// fuzzStats accumulates the traced run's per-seed layer costs.
type fuzzStats struct {
	seeds, solos                         int
	cost                                 seedCost
	soloLockstep, coreSolo, emuSolo      time.Duration
	soloAlloc                            uint64
	soloCycles, pdHits, pdMisses, sbHits uint64
	hsLoad, l1dAcc, l1dMiss              uint64
	l2Req, l2Miss, pfL1, pfL2            uint64
}

type fuzzInstance struct {
	seed    int64
	stat    fuzzStats
	pending []soloJob
}

func setupFuzz(seed int64, tr *tracer) (instance, error) {
	f := &fuzzInstance{seed: seed}
	// Warm-up: one round of seeds from a range no timed op uses.
	for i := 0; i < fuzzRound; i++ {
		if _, err := checkSeed(cosim.FuzzContext(context.Background(), -1-int64(i), 0, fuzzOpts(i))); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

func (f *fuzzInstance) opsPerRound() int { return fuzzRound }

// checkSeed fails a seed that errored, diverged or timed out.
func checkSeed(fr cosim.FuzzResult) (cosim.Result, error) {
	switch {
	case fr.Err != nil:
		return fr.Result, fmt.Errorf("seed %d: %w", fr.Seed, fr.Err)
	case fr.TimedOut:
		return fr.Result, fmt.Errorf("seed %d: timed out", fr.Seed)
	case fr.Diverged:
		return fr.Result, fmt.Errorf("seed %d: diverged (%s)", fr.Seed, fr.Result.Signature())
	}
	return fr.Result, nil
}

// run fuzzes one seed: untraced through cosim.FuzzContext, traced through
// the same steps called one by one. The traced run keeps round 0's
// default-mode programs for the solo runs in verify.
func (f *fuzzInstance) run(tr *tracer, round, i, op int) opResult {
	seed, opts := fuzzSeed(f.seed, round, i), fuzzOpts(i)
	ctx, cancel := context.WithTimeout(context.Background(), seedTimeout)
	defer cancel()
	var r cosim.Result
	var err error
	if tr == nil {
		r, err = checkSeed(cosim.FuzzContext(ctx, seed, 0, opts))
	} else {
		var p *asm.Program
		var lockstep time.Duration
		r, p, lockstep, err = f.tracedSeed(ctx, tr, round, op, seed, opts)
		if err == nil && round == 0 && !opts.Modes.SMP {
			f.pending = append(f.pending, soloJob{op, p, lockstep})
		}
	}
	return opResult{items: 1, instrs: r.Commits, err: err, exact: counts{"cosim.seeds": 1,
		"cosim.commits": r.Commits, "core.cycles": r.Cycles, "core.retired": r.Commits}}
}

// soloJob is a traced seed's program awaiting its solo runs.
type soloJob struct {
	op       int
	p        *asm.Program
	lockstep time.Duration
}

// tracedSeed is cosim.FuzzContext for the default and smp modes, decomposed
// into its public steps with a span around each: GenerateSource, Assemble,
// NewSession, the Step loop and Finish. A seed that diverges is reported
// without shrinking.
func (f *fuzzInstance) tracedSeed(ctx context.Context, tr *tracer, round, op int, seed int64, opts cosim.Options) (cosim.Result, *asm.Program, time.Duration, error) {
	st := &f.stat
	root := tr.begin(op, 0, "bench.seed")
	defer tr.end(root)
	r, p, sess, d, err := decomposeSeed(ctx, tr, op, root, seed, 0, opts)
	st.seeds++
	st.cost.add(d)
	if sess != nil && round == 0 { // exact counts: round 0 only, as for every workload
		st.l2Req += sess.L2().Stats.Requests
		st.l2Miss += sess.L2().Stats.L2Misses
		for h := 0; h < sess.Harts(); h++ {
			c := sess.Hart(h).Core()
			st.l1dAcc += c.L1D.Cache.Stats.Accesses
			st.l1dMiss += c.L1D.Cache.Stats.Misses
			st.pfL1 += c.PF.Stats.L1Issued
			st.pfL2 += c.PF.Stats.L2Issued
		}
	}
	return r, p, d.lockstep, err
}

// seedCost is the host cost of each step of decomposed seeds.
type seedCost struct {
	gen, asm, setup, lockstep, finish time.Duration
	asmAlloc, setupAlloc              uint64
}

func (c *seedCost) add(d seedCost) {
	c.gen += d.gen
	c.asm += d.asm
	c.setup += d.setup
	c.lockstep += d.lockstep
	c.finish += d.finish
	c.asmAlloc += d.asmAlloc
	c.setupAlloc += d.setupAlloc
}

// metrics are the per-seed means of n seeds' costs.
func (c seedCost) metrics(n float64) map[string]float64 {
	return map[string]float64{
		"cosim.generate_ms":    ratio(ms(c.gen), n),
		"asm.assemble_ms":      ratio(ms(c.asm), n),
		"asm.alloc_kb":         ratio(float64(c.asmAlloc)/1024, n),
		"cosim.setup_ms":       ratio(ms(c.setup), n),
		"cosim.setup_alloc_kb": ratio(float64(c.setupAlloc)/1024, n),
		"cosim.lockstep_ms":    ratio(ms(c.lockstep), n),
		"cosim.finish_ms":      ratio(ms(c.finish), n),
	}
}

// decomposeSeed runs one fuzz seed step by step through the public cosim
// and asm entry points, as cosim.FuzzContext does, and returns the same
// Result. It covers the default and smp modes (irq schedules are not
// rebuilt) and does not shrink divergences.
func decomposeSeed(ctx context.Context, tr *tracer, op, parent int, seed int64, segs int, opts cosim.Options) (cosim.Result, *asm.Program, *cosim.Session, seedCost, error) {
	var d seedCost
	id := tr.begin(op, parent, "cosim.generate")
	src, _ := cosim.GenerateSource(seed, segs, opts)
	d.gen = tr.end(id)

	a0 := tr.allocBytes()
	id = tr.begin(op, parent, "asm.assemble")
	p, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
	d.asm = tr.end(id)
	d.asmAlloc = tr.allocBytes() - a0
	if err != nil {
		return cosim.Result{}, nil, nil, d, fmt.Errorf("seed %d: assemble: %w", seed, err)
	}

	a0 = tr.allocBytes()
	id = tr.begin(op, parent, "cosim.setup")
	s := cosim.NewSession(p, opts)
	d.setup = tr.end(id)
	d.setupAlloc = tr.allocBytes() - a0

	id = tr.begin(op, parent, "cosim.lockstep")
	for !s.Done() && ctx.Err() == nil {
		for i := 0; i < 1024 && !s.Done(); i++ {
			s.Step()
		}
	}
	d.lockstep = tr.end(id)
	if ctx.Err() != nil {
		return cosim.Result{TimedOut: true}, p, s, d, fmt.Errorf("seed %d: timed out", seed)
	}

	id = tr.begin(op, parent, "cosim.finish")
	r := s.Finish()
	d.finish = tr.end(id)
	if r.Diverged {
		return r, p, s, d, fmt.Errorf("seed %d: diverged (%s)", seed, r.Signature())
	}
	return r, p, s, d, nil
}

// solo times a fuzz program on the core alone (stepped cycle by cycle, as in
// lock-step) and on the emulator alone. Both are side runs, outside every op
// and span.
func (f *fuzzInstance) solo(tr *tracer, p *asm.Program) error {
	st := &f.stat
	memory := mem.NewMemory()
	l2 := coherence.NewL2(cache.Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64,
		HitLatency: 10, ECC: true, Parity: true}, mem.NewDRAM())
	a0 := tr.allocBytes()
	t := time.Now()
	c := core.New(core.XT910Config(), 0, memory, l2)
	p.LoadInto(memory)
	c.Reset(p.Entry, cosimStack)
	for !c.Halted && c.Stats.Cycles < soloCycles {
		c.Step()
	}
	st.coreSolo += time.Since(t)
	st.soloAlloc += tr.allocBytes() - a0
	st.solos++
	st.soloCycles += c.Stats.Cycles
	st.pdHits += c.Stats.PredecodeHits
	st.pdMisses += c.Stats.PredecodeMisses
	st.sbHits += c.Stats.SuperblockHits
	st.hsLoad += c.Stats.HeadStallLoad

	t = time.Now()
	m := emu.New(mem.NewMemory())
	p.LoadInto(m.Mem)
	m.PC = p.Entry
	m.X[isa.SP] = cosimStack
	err := m.Run(soloCycles)
	st.emuSolo += time.Since(t)
	switch {
	case err != nil:
		return fmt.Errorf("emulator alone: %w", err)
	case !c.Halted || !m.Halted:
		return errors.New("solo run did not halt")
	case c.ExitCode != m.ExitCode:
		return fmt.Errorf("solo exit codes differ: core %d, emulator %d", c.ExitCode, m.ExitCode)
	}
	return nil
}

// verify runs the traced phase's solo runs after its timed ops, so their
// garbage does not slow the ops down.
func (f *fuzzInstance) verify(tr *tracer) map[int]error {
	failed := map[int]error{}
	for _, j := range f.pending {
		if err := f.solo(tr, j.p); err != nil {
			failed[j.op] = err
		}
		f.stat.soloLockstep += j.lockstep
	}
	f.pending = nil
	return failed
}

func (f *fuzzInstance) layerMetrics(_ *tracer, exact counts) map[string]float64 {
	st := f.stat
	n, solos := float64(st.seeds), float64(st.solos)
	fetches := float64(st.pdHits + st.pdMisses + st.sbHits)
	lm := st.cost.metrics(n)
	for k, v := range map[string]float64{
		"cosim.check_ms":            ratio(ms(st.soloLockstep-st.coreSolo-st.emuSolo), solos),
		"cosim.commits_per_seed":    ratio(float64(exact["cosim.commits"]), float64(exact["cosim.seeds"])),
		"core.solo_ms":              ratio(ms(st.coreSolo), solos),
		"emu.solo_ms":               ratio(ms(st.emuSolo), solos),
		"core.ns_per_cycle":         ratio(float64(st.coreSolo.Nanoseconds()), float64(st.soloCycles)),
		"core.alloc_kb_per_run":     ratio(float64(st.soloAlloc)/1024, solos),
		"core.predecode_hit_ratio":  ratio(float64(st.pdHits), float64(st.pdHits+st.pdMisses)),
		"core.superblock_share":     ratio(float64(st.sbHits), fetches),
		"core.head_stall_load_frac": ratio(float64(st.hsLoad), float64(st.soloCycles)),
		"coherence.l1d_miss_ratio":  ratio(float64(st.l1dMiss), float64(st.l1dAcc)),
		"coherence.l2_miss_ratio":   ratio(float64(st.l2Miss), float64(st.l2Req)),
		"coherence.l2_requests":     float64(st.l2Req),
		"prefetch.l1_issued":        float64(st.pfL1),
		"prefetch.l2_issued":        float64(st.pfL2),
	} {
		lm[k] = v
	}
	return lm
}

func (f *fuzzInstance) close() {}
