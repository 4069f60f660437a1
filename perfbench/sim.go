package main

import (
	"fmt"
	"math/rand"
	"time"

	"xt910/internal/asm"
	"xt910/internal/cache"
	"xt910/internal/coherence"
	"xt910/internal/core"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/internal/workloads"
	"xt910/isa"
)

// kernelRun is one figure-harness run: a kernel on a core configuration,
// with the golden model's exit code and a0 checksum to check it against.
type kernelRun struct {
	name   string
	cfg    core.Config
	prog   *asm.Program
	wantX  int
	wantA0 uint64
}

// simResident runs the Fig. 17-19 kernels on the configurations those figures
// compare: CoreMark on XT-910, U74 and A73; the EEMBC and NBench kernels on
// XT-910 and A73.
func simResident() []kernelSpec {
	all := []core.Config{core.XT910Config(), core.U74Config(), core.A73Config()}
	pair := []core.Config{core.XT910Config(), core.A73Config()}
	out := []kernelSpec{{workloads.CoreMark, all}}
	for _, w := range append(workloads.EEMBC(), workloads.NBench()...) {
		out = append(out, kernelSpec{w, pair})
	}
	return out
}

// simMemory runs the large-footprint kernels on XT-910, both in one op: the
// two differ fourfold in run time, so a median over single-kernel ops would
// fall in the gap between them.
func simMemory() []kernelSpec {
	xt := []core.Config{core.XT910Config()}
	return []kernelSpec{{workloads.SpecLike, xt}, {workloads.Stream, xt}}
}

type kernelSpec struct {
	w    workloads.Workload
	cfgs []core.Config
}

// simInstance runs fresh-core kernel runs under the figure harness's memory
// system: 2 MB 16-way L2, 200-cycle DRAM, caches empty at start.
type simInstance struct {
	ops  [][]kernelRun // the kernel runs of each op
	seed int64
	perm []int // op order of every round
	stat simStats
}

// simStats accumulates the traced run's per-layer counts.
type simStats struct {
	runs                                     int
	coreTime                                 time.Duration
	allocBytes                               uint64
	cycles, pdHits, pdMisses, sbHits, hsLoad uint64
	asmTime                                  time.Duration
	asmAlloc                                 uint64
	programs                                 int
}

// setupSim assembles every kernel once and computes its golden result on the
// emulator. Each kernel run is one op, or with oneOp all of them together.
func setupSim(specs []kernelSpec, oneOp bool) func(seed int64, tr *tracer) (instance, error) {
	return func(seed int64, tr *tracer) (instance, error) {
		s := &simInstance{seed: seed}
		var runs []kernelRun
		for _, ks := range specs {
			a0 := tr.allocBytes()
			id := tr.begin(-1, 0, "asm.assemble")
			p, err := asm.Assemble(ks.w.Gen(ks.w.DefaultIters), asm.Options{Base: 0x1000, Compress: true})
			s.stat.asmTime += tr.end(id)
			s.stat.asmAlloc += tr.allocBytes() - a0
			s.stat.programs++
			if err != nil {
				return nil, fmt.Errorf("%s: assemble: %w", ks.w.Name, err)
			}
			id = tr.begin(-1, 0, "emu.golden")
			m := emu.New(mem.NewMemory())
			p.LoadInto(m.Mem)
			m.PC = p.Entry
			m.X[isa.SP] = simStack
			err = m.Run(500_000_000)
			tr.end(id)
			if err != nil || !m.Halted {
				return nil, fmt.Errorf("%s: golden run did not halt (err %v)", ks.w.Name, err)
			}
			for _, cfg := range ks.cfgs {
				runs = append(runs, kernelRun{name: ks.w.Name, cfg: cfg, prog: p,
					wantX: m.ExitCode, wantA0: m.X[isa.A0]})
			}
		}
		if oneOp {
			s.ops = [][]kernelRun{runs}
		} else {
			for _, r := range runs {
				s.ops = append(s.ops, []kernelRun{r})
			}
		}
		return s, nil
	}
}

const (
	simStack     = 0x400000
	simMaxCycles = 2_000_000_000
)

func (s *simInstance) opsPerRound() int { return len(s.ops) }

// run executes op i of a round. The op order is a permutation drawn from the
// seed, the same in every round.
func (s *simInstance) run(tr *tracer, round, i, op int) opResult {
	if s.perm == nil {
		s.perm = rand.New(rand.NewSource(s.seed)).Perm(len(s.ops))
	}
	res := opResult{exact: counts{}}
	for _, kr := range s.ops[s.perm[i]] {
		r := s.runKernel(tr, op, kr)
		res.items++
		res.instrs += r.instrs
		res.exact.add(r.exact)
		if res.err == nil {
			res.err = r.err
		}
	}
	return res
}

// runKernel runs one kernel on a fresh core and checks it against the
// golden run.
func (s *simInstance) runKernel(tr *tracer, op int, kr kernelRun) opResult {
	memory := mem.NewMemory()
	l2 := coherence.NewL2(cache.Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64,
		HitLatency: 10, ECC: true, Parity: true}, &mem.DRAM{Latency: 200, GapCycles: 4})
	a0 := tr.allocBytes()
	id := tr.begin(op, 0, "core.run")
	c := core.New(kr.cfg, 0, memory, l2)
	kr.prog.LoadInto(memory)
	c.Reset(kr.prog.Entry, simStack)
	for !c.Halted && c.Stats.Cycles < simMaxCycles {
		c.Run(1 << 16)
	}
	if tr != nil {
		s.stat.coreTime += tr.end(id)
		s.stat.allocBytes += tr.allocBytes() - a0
		s.stat.runs++
		st := &c.Stats
		s.stat.cycles += st.Cycles
		s.stat.pdHits += st.PredecodeHits
		s.stat.pdMisses += st.PredecodeMisses
		s.stat.sbHits += st.SuperblockHits
		s.stat.hsLoad += st.HeadStallLoad
	}
	res := opResult{items: 1, instrs: c.Stats.Retired, exact: counts{
		"core.cycles":           c.Stats.Cycles,
		"core.retired":          c.Stats.Retired,
		"core.head_stall_load":  c.Stats.HeadStallLoad,
		"coherence.l1d_access":  c.L1D.Cache.Stats.Accesses,
		"coherence.l1d_misses":  c.L1D.Cache.Stats.Misses,
		"coherence.l2_requests": l2.Stats.Requests,
		"coherence.l2_misses":   l2.Stats.L2Misses,
		"prefetch.l1_issued":    c.PF.Stats.L1Issued,
		"prefetch.l2_issued":    c.PF.Stats.L2Issued,
	}}
	switch {
	case !c.Halted:
		res.err = fmt.Errorf("%s on %s: did not halt in %d cycles", kr.name, kr.cfg.Name, simMaxCycles)
	case c.ExitCode != kr.wantX || c.Reg(isa.A0) != kr.wantA0:
		res.err = fmt.Errorf("%s on %s: exit %d a0 %#x, golden exit %d a0 %#x",
			kr.name, kr.cfg.Name, c.ExitCode, c.Reg(isa.A0), kr.wantX, kr.wantA0)
	}
	return res
}

func (s *simInstance) verify(*tracer) map[int]error { return nil }

func (s *simInstance) layerMetrics(_ *tracer, exact counts) map[string]float64 {
	st := s.stat
	fetches := float64(st.pdHits + st.pdMisses + st.sbHits)
	return map[string]float64{
		"asm.assemble_ms":           ratio(ms(st.asmTime), float64(st.programs)),
		"asm.alloc_kb":              ratio(float64(st.asmAlloc)/1024, float64(st.programs)),
		"core.ns_per_cycle":         ratio(float64(st.coreTime.Nanoseconds()), float64(st.cycles)),
		"core.alloc_kb_per_run":     ratio(float64(st.allocBytes)/1024, float64(st.runs)),
		"core.predecode_hit_ratio":  ratio(float64(st.pdHits), float64(st.pdHits+st.pdMisses)),
		"core.superblock_share":     ratio(float64(st.sbHits), fetches),
		"core.head_stall_load_frac": ratio(float64(exact["core.head_stall_load"]), float64(exact["core.cycles"])),
		"coherence.l1d_miss_ratio":  ratio(float64(exact["coherence.l1d_misses"]), float64(exact["coherence.l1d_access"])),
		"coherence.l2_miss_ratio":   ratio(float64(exact["coherence.l2_misses"]), float64(exact["coherence.l2_requests"])),
	}
}

func (s *simInstance) close() {}
