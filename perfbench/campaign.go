package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"xt910/internal/campaign"
	"xt910/internal/cliflags"
	"xt910/internal/cosim"
	"xt910/internal/inject"
)

const (
	workerJobs  = 2                      // the worker's item pool width (nproc = 2)
	leaseTTL    = 150 * time.Millisecond // short, so heartbeats fire within a campaign
	workerPoll  = 5 * time.Millisecond   // idle re-poll; bounds the lease wait
	statusPoll  = time.Millisecond
	opTimeout   = 60 * time.Second
	stateParent = ".bench_build"
)

// campaignSpecs are one round of campaign-mixed: a fuzz campaign of many
// cheap items, then an inject campaign of few costly ones.
func campaignSpecs(seed int64) []*campaign.Spec {
	base := seed * 1_000_000
	return []*campaign.Spec{
		{Tool: "fuzz", Knobs: cliflags.Knobs{N: 200, Seed: base, Jobs: workerJobs}, Shards: 4},
		{Tool: "inject", Knobs: cliflags.Knobs{N: 24, Seed: base + 500_000, Jobs: workerJobs}, Shards: 4, FaultsPerSeed: 8},
	}
}

// opReport is one finished campaign awaiting its byte-identity check.
type opReport struct {
	spec   int
	report []byte
	wall   time.Duration
}

type campaignInstance struct {
	specs  []*campaign.Spec
	dir    string
	eng    *campaign.Engine
	srv    *httptest.Server
	tp     *http.Transport
	client *http.Client
	stop   context.CancelFunc
	done   chan struct{}

	// mu guards the fields up to the blank line: the worker, handler and
	// direct-run goroutines write them.
	mu         sync.Mutex
	tr         *tracer // tracer of the op in flight (nil untraced)
	op, root   int
	submitAt   time.Time
	awaitGrant bool
	leaseWaits []float64
	httpLat    []float64
	injectSeed []float64
	refSeeds   int
	ref        seedCost

	reports      map[int]opReport
	journalBytes int64
	campaigns    int
	items        int           // seeds of the traced campaigns
	overhead     time.Duration // campaign wall minus direct-run wall, traced ops
}

// setupCampaign starts an engine with local execution off behind the HTTP
// handler on a loopback server, one in-process worker, and warms both up
// with one small campaign of each tool.
func setupCampaign(seed int64, _ *tracer) (instance, error) {
	if err := os.MkdirAll(stateParent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateParent, "campaign-state-")
	if err != nil {
		return nil, err
	}
	c := &campaignInstance{specs: campaignSpecs(seed), dir: dir, reports: map[int]opReport{}}
	c.eng, err = campaign.Open(campaign.Options{StateDir: dir, Jobs: workerJobs, LeaseTTL: leaseTTL, DisableLocal: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	c.srv = httptest.NewServer(c.handler(campaign.NewHandler(c.eng)))
	c.tp = http.DefaultTransport.(*http.Transport).Clone()
	c.client = &http.Client{Timeout: 30 * time.Second, Transport: &timingTransport{base: c.tp, c: c}}
	ctx, stop := context.WithCancel(context.Background())
	c.stop, c.done = stop, make(chan struct{})
	go func() {
		defer close(c.done)
		campaign.RunWorker(ctx, campaign.WorkerOptions{Coordinator: c.srv.URL, ID: "perfbench",
			Jobs: workerJobs, Client: c.client, Poll: workerPoll})
	}()
	for _, spec := range []*campaign.Spec{
		{Tool: "fuzz", Knobs: cliflags.Knobs{N: 16, Seed: -1000, Jobs: workerJobs}, Shards: 2},
		{Tool: "inject", Knobs: cliflags.Knobs{N: 2, Seed: -2000, Jobs: workerJobs}, FaultsPerSeed: 4},
	} {
		if _, _, err := c.submitAndWait(spec); err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return c, nil
}

func (c *campaignInstance) close() {
	c.stop()
	<-c.done
	c.srv.Close()
	c.eng.Close()
	c.tp.CloseIdleConnections()
	os.RemoveAll(c.dir)
}

func (c *campaignInstance) opsPerRound() int { return len(c.specs) }

// current returns the tracer, op and root span of the campaign in flight.
func (c *campaignInstance) current() (*tracer, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tr, c.op, c.root
}

// timingTransport records a span for every request to the coordinator, with
// the span id in spanHeader so the server-side span nests under it.
type timingTransport struct {
	base http.RoundTripper
	c    *campaignInstance
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr, op, root := t.c.current()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	id := tr.begin(op, root, "http."+endpoint(req.URL.Path))
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.base.RoundTrip(req)
	d := tr.end(id)
	status := 0
	if resp != nil {
		status = resp.StatusCode
	}
	t.c.roundTrip(tr, req.URL.Path, d, status, err)
	return resp, err
}

// handler wraps the coordinator so every request gets a server-side span
// under the worker request that caused it.
func (c *campaignInstance) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr, op, _ := c.current()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := tr.begin(op, parent, "handler."+endpoint(r.URL.Path))
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// spanHeader carries the client span id to the coordinator's handler so the
// server-side span nests under the request that caused it.
const spanHeader = "X-Perfbench-Span"

// endpoint names an API path by its last element ("/api/v1/lease" -> lease).
func endpoint(path string) string {
	path = strings.TrimSuffix(path, "/")
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// roundTrip observes one finished client request (traced ops only).
func (c *campaignInstance) roundTrip(tr *tracer, path string, d time.Duration, status int, err error) {
	ep := endpoint(path)
	tr.add("campaign."+ep+"_requests", 1)
	switch {
	case errors.Is(err, context.Canceled):
		return // the worker gave up on it: the shard ended mid-heartbeat
	case err != nil || status >= 400 && status != http.StatusConflict:
		tr.add("campaign.http_failed", 1)
	case status == http.StatusConflict:
		tr.add("campaign.fenced_409", 1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ep == "lease" || ep == "heartbeat" || ep == "complete" {
		c.httpLat = append(c.httpLat, ms(d))
	}
	if ep == "lease" && status == http.StatusOK && c.awaitGrant {
		c.awaitGrant = false
		c.leaseWaits = append(c.leaseWaits, ms(time.Since(c.submitAt)))
	}
}

// run submits one campaign over HTTP, waits until it is done and fetches
// its merged report, which verify checks against a direct run.
func (c *campaignInstance) run(tr *tracer, round, i, op int) opResult {
	spec := c.specs[i]
	root := tr.begin(op, 0, "campaign.op")
	c.mu.Lock()
	c.tr, c.op, c.root, c.submitAt, c.awaitGrant = tr, op, root, time.Now(), true
	c.mu.Unlock()
	t := time.Now()
	id, report, err := c.submitAndWait(spec)
	wall := time.Since(t)
	tr.end(root)
	c.mu.Lock()
	c.tr = nil
	c.mu.Unlock()

	res := opResult{items: spec.N, err: err, exact: counts{}}
	if err != nil {
		return res
	}
	c.reports[op] = opReport{spec: i, report: report, wall: wall}
	res.exact, res.instrs, res.err = reportCounts(spec.Tool, report)
	if tr != nil {
		c.campaigns++
		c.items += spec.N
		for s := 0; s < max(spec.Shards, 1); s++ {
			if fi, err := os.Stat(filepath.Join(c.dir, id, fmt.Sprintf("shard%d.jsonl", s))); err == nil {
				c.journalBytes += fi.Size()
			}
		}
	}
	return res
}

// submitAndWait is one campaign's turnaround: POST the spec, poll the
// engine until the campaign is done, GET the merged report.
func (c *campaignInstance) submitAndWait(spec *campaign.Spec) (string, []byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", nil, err
	}
	resp, err := c.client.Post(c.srv.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", nil, fmt.Errorf("submit: %w", err)
	}
	var sub struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return "", nil, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	deadline := time.Now().Add(opTimeout)
	for {
		st, ok := c.eng.Get(sub.ID)
		if !ok {
			return sub.ID, nil, fmt.Errorf("campaign %s vanished", sub.ID)
		}
		if st.Status == campaign.StatusDone {
			break
		}
		if st.Status == campaign.StatusFailed {
			return sub.ID, nil, fmt.Errorf("campaign %s failed: %s", sub.ID, st.Error)
		}
		if time.Now().After(deadline) {
			return sub.ID, nil, fmt.Errorf("campaign %s not done after %v", sub.ID, opTimeout)
		}
		time.Sleep(statusPoll)
	}
	resp, err = c.client.Get(c.srv.URL + "/api/v1/campaigns/" + sub.ID + "/report")
	if err != nil {
		return sub.ID, nil, fmt.Errorf("report: %w", err)
	}
	defer resp.Body.Close()
	report, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	if err != nil {
		return sub.ID, nil, fmt.Errorf("report %s: %w", sub.ID, err)
	}
	return sub.ID, report, nil
}

// injectRow mirrors the campaign service's inject report row.
type injectRow struct {
	Seed            int64                `json:"seed"`
	ControlFailures []string             `json:"control_failures,omitempty"`
	Faults          []inject.FaultResult `json:"faults"`
}

// reportCounts reads the exact simulated counts out of a merged report and
// fails a report with a diverged, timed-out or falsely failing item.
func reportCounts(tool string, report []byte) (counts, uint64, error) {
	ex := counts{}
	dec := json.NewDecoder(bytes.NewReader(report))
	for dec.More() {
		if tool == "fuzz" {
			var r cosim.SeedRecord
			if err := dec.Decode(&r); err != nil {
				return ex, 0, err
			}
			if r.Status != "ok" {
				return ex, 0, fmt.Errorf("fuzz seed %d: %s %s", r.Seed, r.Status, r.Kind)
			}
			ex["cosim.seeds"]++
			ex["cosim.commits"] += r.Commits
			ex["core.retired"] += r.Commits
			ex["core.cycles"] += r.Cycles
			continue
		}
		var r injectRow
		if err := dec.Decode(&r); err != nil {
			return ex, 0, err
		}
		if len(r.ControlFailures) > 0 {
			return ex, 0, fmt.Errorf("inject seed %d: %s", r.Seed, r.ControlFailures[0])
		}
		for _, f := range r.Faults {
			if f.Outcome == inject.Silent && f.Target.Arch() {
				return ex, 0, fmt.Errorf("inject seed %d: silent architectural fault", r.Seed)
			}
		}
		ex["inject.seeds"]++
		ex["inject.runs"] += 1 + uint64(len(r.Faults))
	}
	return ex, ex["cosim.commits"], nil
}

// verify runs every spec of the phase directly, at the worker's width,
// through cosim.FuzzContext (traced: the decomposed steps) and
// inject.RunCampaign, and checks each campaign report is byte-identical.
func (c *campaignInstance) verify(tr *tracer) map[int]error {
	refs := make([][]byte, len(c.specs))
	walls := make([]time.Duration, len(c.specs))
	for i, spec := range c.specs {
		t := time.Now()
		refs[i] = c.direct(tr, spec)
		walls[i] = time.Since(t)
	}
	failed := map[int]error{}
	for op, r := range c.reports {
		if !bytes.Equal(r.report, refs[r.spec]) {
			failed[op] = fmt.Errorf("%s campaign report differs from the direct run", c.specs[r.spec].Tool)
		}
		if tr != nil {
			c.overhead += r.wall - walls[r.spec]
		}
	}
	c.reports = map[int]opReport{}
	return failed
}

// direct produces a spec's report lines without the service, on workerJobs
// goroutines.
func (c *campaignInstance) direct(tr *tracer, spec *campaign.Spec) []byte {
	seeds := spec.Seeds()
	lines := make([][]byte, len(seeds))
	modes, _ := spec.CosimModes()
	opts := cosim.Options{Modes: modes, Harts: spec.Harts, MaxCycles: spec.Cycles}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workerJobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				j := next
				next++
				mu.Unlock()
				if j >= len(seeds) {
					return
				}
				lines[j] = c.directItem(tr, spec, seeds[j], opts)
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	for _, l := range lines {
		buf.Write(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func (c *campaignInstance) directItem(tr *tracer, spec *campaign.Spec, seed int64, opts cosim.Options) []byte {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var row any
	if spec.Tool == "fuzz" {
		fr := cosim.FuzzResult{Seed: seed}
		if tr == nil {
			fr = cosim.FuzzContext(ctx, seed, spec.Segs, opts)
		} else {
			root := tr.begin(-1, 0, "bench.seed")
			var d seedCost
			fr.Result, _, _, d, _ = decomposeSeed(ctx, tr, -1, root, seed, spec.Segs, opts)
			tr.end(root)
			fr.Diverged, fr.TimedOut = fr.Result.Diverged, fr.Result.TimedOut
			c.mu.Lock()
			c.refSeeds++
			c.ref.add(d)
			c.mu.Unlock()
		}
		row = cosim.NewSeedRecord(fr)
	} else {
		id := tr.begin(-1, 0, "inject.seed")
		rep, err := inject.RunCampaign(ctx, inject.Options{Seeds: []int64{seed},
			FaultsPerSeed: spec.FaultsPerSeed, Segs: spec.Segs, Jobs: 1,
			Timeout: spec.SeedTimeout(), MaxCycles: spec.Cycles})
		d := tr.end(id)
		if err != nil {
			return []byte(fmt.Sprintf(`{"error":%q}`, err))
		}
		if tr != nil {
			c.mu.Lock()
			c.injectSeed = append(c.injectSeed, ms(d))
			c.mu.Unlock()
		}
		r := injectRow{Seed: seed, ControlFailures: rep.ControlFailures, Faults: rep.Results}
		if r.Faults == nil {
			r.Faults = []inject.FaultResult{}
		}
		row = r
	}
	b, err := json.Marshal(row)
	if err != nil {
		return []byte(fmt.Sprintf(`{"error":%q}`, err))
	}
	return b
}

func (c *campaignInstance) layerMetrics(tr *tracer, exact counts) map[string]float64 {
	camps := float64(c.campaigns)
	lm := c.ref.metrics(float64(c.refSeeds))
	// The direct run allocates on two goroutines at once, so a process-wide
	// allocation delta does not belong to one seed.
	delete(lm, "asm.alloc_kb")
	delete(lm, "cosim.setup_alloc_kb")
	for k, v := range map[string]float64{
		"cosim.commits_per_seed":          ratio(float64(exact["cosim.commits"]), float64(exact["cosim.seeds"])),
		"inject.seed_ms":                  median(c.injectSeed),
		"inject.runs_per_seed":            ratio(float64(exact["inject.runs"]), float64(exact["inject.seeds"])),
		"campaign.lease_requests":         ratio(tr.count("campaign.lease_requests"), camps),
		"campaign.heartbeat_requests":     ratio(tr.count("campaign.heartbeat_requests"), camps),
		"campaign.complete_requests":      ratio(tr.count("campaign.complete_requests"), camps),
		"campaign.http_failed":            tr.count("campaign.http_failed"),
		"campaign.fenced_409":             tr.count("campaign.fenced_409"),
		"campaign.http_ms_p50":            median(c.httpLat),
		"campaign.lease_wait_ms":          median(c.leaseWaits),
		"campaign.journal_bytes_per_item": ratio(float64(c.journalBytes), float64(c.items)),
		"campaign.service_ms_per_item":    ratio(ms(c.overhead), float64(c.items)),
	} {
		lm[k] = v
	}
	return lm
}
