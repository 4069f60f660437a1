// Command perfbench is the xt910 host-speed benchmark. It runs one workload
// (or all four) in a single process, times every op as a closed loop with
// one client, checks every op's output, and prints the end-to-end metrics
// (--trace 0) or, from a separate traced run, the per-layer metrics, the
// layer self-time table and the tracing overhead (--trace 1). The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// All times are host time. The simulated counts printed beside them are
// exact and must not change under a host-speed change; model error against
// the paper lives in the fidelity table (FIDELITY_*.json), not here.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fuzz-cosim --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// opResult is the outcome of one benchmark op.
type opResult struct {
	items  int    // work items completed (kernel runs, fuzz seeds, campaign seeds)
	instrs uint64 // simulated instructions retired
	err    error  // failed output check
	exact  counts // exact simulated counts
}

// counts are exact simulated event counts, keyed by metric-style names.
type counts map[string]uint64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counts) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, c[k])
	}
	return strings.TrimSpace(b.String())
}

// instance is one set-up copy of a workload.
type instance interface {
	// opsPerRound is the number of ops in one round; every round runs the
	// same kind of work, and the timed loop runs whole rounds.
	opsPerRound() int
	// run executes op i of a round. op numbers ops uniquely across phases.
	run(tr *tracer, round, i, op int) opResult
	// verify runs the checks that need the whole phase (campaign reports
	// against a direct run) and returns the failed ops.
	verify(tr *tracer) map[int]error
	// layerMetrics derives the per-layer metrics of the traced phase.
	layerMetrics(tr *tracer, exact counts) map[string]float64
	close()
}

type workload struct {
	name, why string
	setup     func(seed int64, tr *tracer) (instance, error)
}

var workloadList = []workload{
	{"sim-resident", "Fig. 17-19 kernels: the core pipeline does the host work, caches barely miss",
		setupSim(simResident(), false)},
	{"sim-memory", "speclike and STREAM under a 200-cycle DRAM: L1/L2, DRAM, prefetch and fast-forward work",
		setupSim(simMemory(), true)},
	{"fuzz-cosim", "one cosim fuzz seed per op: fixed per-seed cost of generate, assemble, session set-up and lock-step",
		setupFuzz},
	{"campaign-mixed", "fuzz and inject campaigns through the HTTP coordinator and one worker",
		setupCampaign},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// phase is the measured outcome of running rounds of ops.
type phase struct {
	rounds    int
	lat       []float64 // per-op latency, ms
	busy      time.Duration
	items     int
	instrs    uint64
	attempted int
	failed    int
	errs      []error
	exact     counts // summed over round 0 only, so runs of any length compare
	// Per-round rates: the reported rates are their medians, which a burst
	// of host noise inside one round does not move.
	roundItems, roundMIPS []float64
}

func (p *phase) itemsPerS() float64 { return median(p.roundItems) }

// runPhase runs exactly the given number of whole rounds or, when rounds <=
// 0, the number of whole rounds whose busy time lands closest to the budget.
func runPhase(inst instance, tr *tracer, budget time.Duration, rounds, opBase int) *phase {
	p := &phase{exact: counts{}}
	n := inst.opsPerRound()
	var results []opResult
	var prev time.Duration
	var prevItems int
	var prevInstrs uint64
	for r := 0; ; r++ {
		if rounds > 0 && r == rounds ||
			rounds <= 0 && r > 0 && p.busy+p.busy/time.Duration(2*r) >= budget {
			break
		}
		for i := 0; i < n; i++ {
			t := time.Now()
			res := inst.run(tr, r, i, opBase+r*n+i)
			d := time.Since(t)
			p.busy += d
			p.lat = append(p.lat, ms(d))
			p.items += res.items
			p.instrs += res.instrs
			if r == 0 {
				p.exact.add(res.exact)
			}
			results = append(results, res)
		}
		d := (p.busy - prev).Seconds()
		p.roundItems = append(p.roundItems, float64(p.items-prevItems)/d)
		p.roundMIPS = append(p.roundMIPS, float64(p.instrs-prevInstrs)/d/1e6)
		prev, prevItems, prevInstrs = p.busy, p.items, p.instrs
		p.rounds = r + 1
	}
	for op, err := range inst.verify(tr) {
		if j := op - opBase; j >= 0 && j < len(results) && results[j].err == nil {
			results[j].err = err
		}
	}
	p.attempted = len(results)
	for _, res := range results {
		if res.err != nil {
			p.failed++
			p.errs = append(p.errs, res.err)
		}
	}
	return p
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload: sim-resident, sim-memory, fuzz-cosim, campaign-mixed or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "timed seconds per run (whole rounds)")
	traced := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	flag.Parse()

	var ws []workload
	for _, w := range workloadList {
		if *name == "all" || w.name == *name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	ok := true
	for _, w := range ws {
		res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func runWorkload(w workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	fmt.Printf("== %s (seed %d): %s\n", w.name, seed, w.why)

	var inst instance
	var setups []float64
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			inst.close()
		}
		var str *tracer
		if k == setupReps-1 {
			str = tr // only the kept copy's set-up is traced
		}
		t := time.Now()
		var err error
		if inst, err = w.setup(seed, str); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer inst.close()

	base := runPhase(inst, nil, budget, 0, 0)
	res := &result{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metricOut{}}
	fmt.Printf("untraced: %d rounds, %d ops, %d items in %.3f s busy\n",
		base.rounds, base.attempted, base.items, base.busy.Seconds())
	fmt.Printf("exact counts (round 0, untraced): %s\n", base.exact)
	fmt.Printf("round rates: items/s min %.4g median %.4g max %.4g\n",
		quantile(base.roundItems, 0), median(base.roundItems), quantile(base.roundItems, 1))
	e2e := map[string]float64{
		"setup_s":     median(setups),
		"sim_mips":    median(base.roundMIPS),
		"items_per_s": base.itemsPerS(),
		"op_ms_p50":   median(base.lat),
		"op_ms_p90":   quantile(base.lat, 0.90),
		"peak_rss_mb": peakRSSMB(),
	}
	for _, m := range endToEnd {
		fmt.Printf("  %-12s %14.4f %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	fmt.Printf("  %-12s %14.4f ms (report only: too noisy on a shared host to gate)\n",
		"op_ms_p99", quantile(base.lat, 0.99))
	fmt.Printf("  %-12s %14.4f (%d failed of %d ops; op latency samples %d)\n",
		"failed_frac", ratio(float64(base.failed), float64(base.attempted)),
		base.failed, base.attempted, len(base.lat))

	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricOut{e2e[m.Name], m.Unit}
		}
	} else {
		tp := runPhase(inst, tr, 0, base.rounds, base.attempted)
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		base.errs = append(base.errs, tp.errs...)
		fmt.Printf("traced: %d rounds, %d ops in %.3f s busy\n", tp.rounds, tp.attempted, tp.busy.Seconds())
		fmt.Printf("exact counts (round 0, traced):   %s\n", tp.exact)
		if a, b := base.exact.String(), tp.exact.String(); a != b {
			res.Failed++
			base.errs = append(base.errs, fmt.Errorf("exact counts differ between the untraced and traced runs"))
		}
		lm := inst.layerMetrics(tr, tp.exact)
		for _, k := range []string{"core.cycles", "core.retired", "coherence.l2_requests",
			"prefetch.l1_issued", "prefetch.l2_issued"} {
			if _, set := lm[k]; !set {
				lm[k] = float64(tp.exact[k])
			}
		}
		lm["trace.overhead_pct"] = 100 * (ratio(base.itemsPerS(), tp.itemsPerS()) - 1)
		fmt.Printf("traced vs untraced: items_per_s %.4g vs %.4g, op_ms_p50 %.4g vs %.4g, op_ms_p90 %.4g vs %.4g\n",
			tp.itemsPerS(), base.itemsPerS(), median(tp.lat), median(base.lat),
			quantile(tp.lat, 0.9), quantile(base.lat, 0.9))
		spans := tr.closed()
		byLayer := shares(selfTimes(spans, span.layer))
		for _, s := range byLayer {
			lm["share."+s.Key+"_pct"] = s.Pct
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricOut{lm[m.Name], m.Unit}
			fmt.Printf("  %-32s %14.4f %s\n", m.Name, lm[m.Name], m.Unit)
		}
		printShares("self time by layer, "+w.name+" (traced run, set-up and verification included):", byLayer)
		printShares("self time by call:", shares(selfTimes(spans, func(s span) string { return s.Name })))
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	}
	for i, err := range base.errs {
		if i == 10 {
			fmt.Printf("FAIL: ... %d more\n", len(base.errs)-i)
			break
		}
		fmt.Printf("FAIL: %v\n", err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}
