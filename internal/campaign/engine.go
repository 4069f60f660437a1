package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xt910/internal/retry"
)

// Campaign statuses.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// localWorkerID names the coordinator's in-process fallback executor in the
// lease registry and the /progress view. Remote workers may not use it.
const localWorkerID = "local"

// dispatchTick is the dispatcher's lease-expiry period and the in-process
// executor's idle poll interval.
const dispatchTick = 20 * time.Millisecond

// Options configures an Engine.
type Options struct {
	// StateDir holds every campaign's manifest, journals and report plus the
	// divergence corpus and the fencing-token counter. Required.
	StateDir string
	// Jobs is the in-process executor's item pool width (<= 0: the spec's
	// Jobs, then GOMAXPROCS). Any width produces the identical merged report.
	Jobs int
	// Runner substitutes the item executor (tests); nil selects the real
	// tool runner.
	Runner Runner
	// LeaseTTL bounds every shard lease: a worker that misses heartbeats
	// for this long loses the shard back to the pending queue. <= 0 picks
	// the 10s default.
	LeaseTTL time.Duration
	// DisableLocal turns off the in-process fallback executor, making the
	// engine a pure dispatcher: shards only run on remote workers.
	DisableLocal bool
	// LocalGrace is how long the local fallback defers to an absent fleet:
	// the coordinator runs a pending shard itself only once this much time
	// has passed since the later of engine start and the last remote-worker
	// contact, and no remote worker is currently live. 0 (default): the
	// coordinator picks up work the moment no live worker exists — PR 8's
	// single-process behavior when no worker ever connects.
	LocalGrace time.Duration
	// Logf receives operational log lines (lease expiries, worker churn);
	// nil discards them.
	Logf func(format string, args ...any)

	// clock substitutes the registry/liveness clock (tests).
	clock func() time.Time
}

// Engine is the campaign coordinator: it owns the campaign store, the lease
// registry that dispatches shards to workers (remote via the HTTP API, plus
// an in-process fallback executor), and the merge that turns journals into
// reports. Open resumes every unfinished campaign found in the state
// directory before accepting new work.
type Engine struct {
	opts   Options
	corpus *Corpus
	leases *leaseRegistry
	now    func() time.Time

	mu        sync.Mutex
	campaigns map[string]*state
	order     []string // submission order (IDs are sequential, but keep it explicit)
	nextID    int
	draining  bool

	workersMu  sync.Mutex
	workers    map[string]time.Time // remote worker ID -> last contact
	lastRemote time.Time            // last contact from any remote worker
	bootTime   time.Time
	ctx        context.Context
	cancel     context.CancelFunc
	wg         sync.WaitGroup
}

// state is one campaign's in-memory state, rebuilt from the journals on
// resume.
type state struct {
	id   string
	dir  string
	spec *Spec

	mu      sync.Mutex
	status  string
	errMsg  string
	shards  [][]Item
	done    []map[int]json.RawMessage // per shard: item index -> report line
	divs    map[int]*Divergence       // item index -> divergence
	started time.Time
	instrs  uint64 // retired instructions executed so far (host-MIPS numerator)
	wall    time.Duration
}

// Open loads the state directory, resumes unfinished campaigns and starts
// the dispatcher loop and, unless DisableLocal, the in-process executor.
func Open(opts Options) (*Engine, error) {
	if opts.StateDir == "" {
		return nil, fmt.Errorf("campaign: Options.StateDir is required")
	}
	if opts.Runner == nil {
		opts.Runner = toolRunner{}
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.clock == nil {
		opts.clock = time.Now
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, err
	}
	corpus, err := OpenCorpus(filepath.Join(opts.StateDir, "corpus"))
	if err != nil {
		return nil, err
	}
	fence, err := openFence(filepath.Join(opts.StateDir, "fence"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		opts:      opts,
		corpus:    corpus,
		leases:    newLeaseRegistry(opts.LeaseTTL, opts.clock, fence),
		now:       opts.clock,
		campaigns: make(map[string]*state),
		nextID:    1,
		workers:   make(map[string]time.Time),
		bootTime:  opts.clock(),
		ctx:       ctx,
		cancel:    cancel,
	}
	if err := e.loadAll(); err != nil {
		cancel()
		return nil, err
	}
	e.wg.Add(1)
	go e.dispatcher()
	if !opts.DisableLocal {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			runWorker(e.ctx, WorkerOptions{ID: localWorkerID, Jobs: opts.Jobs,
				Runner: opts.Runner, Poll: dispatchTick, Logf: opts.Logf}, localCoordinator{e})
		}()
	}
	return e, nil
}

// loadAll rebuilds every campaign from disk and registers the unfinished
// shards for dispatch in ID order.
func (e *Engine) loadAll() error {
	ents, err := os.ReadDir(e.opts.StateDir)
	if err != nil {
		return err
	}
	var ids []string
	for _, ent := range ents {
		if ent.IsDir() && strings.HasPrefix(ent.Name(), "c") {
			if n, err := strconv.Atoi(ent.Name()[1:]); err == nil {
				ids = append(ids, ent.Name())
				if n >= e.nextID {
					e.nextID = n + 1
				}
			}
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		st, err := e.load(id)
		if err != nil {
			return err
		}
		e.campaigns[id] = st
		e.order = append(e.order, id)
		if st.status == StatusQueued {
			e.registerShards(st)
		}
	}
	return nil
}

// load rebuilds one campaign: manifest, then each shard journal (compacted,
// so the append file is well-formed again after a torn tail).
func (e *Engine) load(id string) (*state, error) {
	dir := filepath.Join(e.opts.StateDir, id)
	spec, err := loadSpec(dir)
	if err != nil {
		return nil, err
	}
	st := &state{id: id, dir: dir, spec: spec, status: StatusQueued,
		shards: spec.ShardItems(), divs: make(map[int]*Divergence)}
	st.done = make([]map[int]json.RawMessage, len(st.shards))
	complete := true
	for si := range st.shards {
		st.done[si] = make(map[int]json.RawMessage)
		path := shardJournalPath(dir, si)
		entries, err := readJournal(path)
		if err != nil {
			return nil, err
		}
		if err := compactJournal(path, entries); err != nil {
			return nil, err
		}
		valid := make(map[int]bool, len(st.shards[si]))
		for _, it := range st.shards[si] {
			valid[it.Index] = true
		}
		for _, en := range entries {
			if !valid[en.Index] {
				continue // stale entry from an edited manifest; ignore
			}
			st.done[si][en.Index] = en.Line
			st.instrs += en.Instrs
			if en.Div != nil {
				st.divs[en.Index] = en.Div
			}
		}
		if len(st.done[si]) < len(st.shards[si]) {
			complete = false
		}
	}
	if complete {
		// Everything ran; the report may still be missing if the daemon died
		// between the last journal append and the report rename.
		if err := st.writeReport(); err != nil {
			return nil, err
		}
		st.status = StatusDone
	}
	return st, nil
}

// registerShards queues every not-yet-complete shard of a campaign for
// dispatch.
func (e *Engine) registerShards(st *state) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for si := range st.shards {
		if len(st.done[si]) < len(st.shards[si]) {
			e.leases.Enqueue(shardRef{Campaign: st.id, Shard: si})
		}
	}
}

// Submit validates and admits a campaign, returning its ID. The manifest is
// durable before Submit returns.
func (e *Engine) Submit(spec *Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return "", fmt.Errorf("campaign: engine is draining")
	}
	id := fmt.Sprintf("c%04d", e.nextID)
	e.nextID++
	e.mu.Unlock()

	dir := filepath.Join(e.opts.StateDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := saveSpec(dir, spec); err != nil {
		return "", err
	}
	st := &state{id: id, dir: dir, spec: spec, status: StatusQueued,
		shards: spec.ShardItems(), divs: make(map[int]*Divergence)}
	st.done = make([]map[int]json.RawMessage, len(st.shards))
	for si := range st.shards {
		st.done[si] = make(map[int]json.RawMessage)
	}
	e.mu.Lock()
	e.campaigns[id] = st
	e.order = append(e.order, id)
	e.mu.Unlock()
	e.registerShards(st)
	return id, nil
}

// ---------------------------------------------------------------------------
// Dispatch: lease expiry, remote-worker liveness and the local fallback.

// touchWorker records remote-worker contact (lease poll, heartbeat or
// complete) for the liveness view. The in-process executor is not a remote
// worker and never counts as one.
func (e *Engine) touchWorker(id string) {
	if id == localWorkerID {
		return
	}
	now := e.now()
	e.workersMu.Lock()
	e.workers[id] = now
	e.lastRemote = now
	e.workersMu.Unlock()
}

// liveWorkers counts remote workers heard from within one lease TTL.
func (e *Engine) liveWorkers() int {
	cutoff := e.now().Add(-e.opts.LeaseTTL)
	e.workersMu.Lock()
	defer e.workersMu.Unlock()
	n := 0
	for id, last := range e.workers {
		if last.Before(cutoff) {
			delete(e.workers, id) // forget the dead; healthz counts the living
			continue
		}
		n++
	}
	return n
}

// WorkerCount is the /healthz live remote worker count.
func (e *Engine) WorkerCount() int { return e.liveWorkers() }

// localMayRun decides whether the in-process fallback should pick up work:
// never while a remote worker is live, and only after LocalGrace has passed
// since the later of boot and the last remote contact — so a briefly
// partitioned fleet gets first refusal on its own shards.
func (e *Engine) localMayRun() bool {
	if e.liveWorkers() > 0 {
		return false
	}
	e.workersMu.Lock()
	since := e.bootTime
	if e.lastRemote.After(since) {
		since = e.lastRemote
	}
	e.workersMu.Unlock()
	return e.now().Sub(since) >= e.opts.LocalGrace
}

// dispatcher is the engine's background loop: it reaps expired leases,
// requeueing their shards.
func (e *Engine) dispatcher() {
	defer e.wg.Done()
	tick := time.NewTicker(dispatchTick)
	defer tick.Stop()
	for {
		select {
		case <-e.ctx.Done():
			return
		case <-tick.C:
		}
		for _, l := range e.leases.ExpireStale() {
			e.opts.Logf("campaign: lease expired: %s worker=%s token=%d (requeued)",
				l.ref, l.worker, l.token)
		}
	}
}

// localCoordinator is the engine's in-process coordinator for its own
// executor, which runs the same worker loop as a remote xtworker. It grants
// work only while localMayRun allows. In-process calls cannot fail
// transiently, so every error is permanent.
type localCoordinator struct{ e *Engine }

func (c localCoordinator) lease(context.Context) (*LeaseGrant, error) {
	if !c.e.localMayRun() {
		return nil, nil
	}
	g, err := c.e.AcquireShard(localWorkerID)
	if errors.Is(err, ErrNoWork) {
		return nil, nil
	}
	return g, err
}

func (c localCoordinator) heartbeat(_ context.Context, g *LeaseGrant, entries []journalEntry) error {
	_, err := c.e.HeartbeatShard(localWorkerID, g.Campaign, g.Shard, g.Token, entries)
	return retry.Permanent(err)
}

func (c localCoordinator) complete(_ context.Context, g *LeaseGrant, entries []journalEntry, errMsg string) error {
	return retry.Permanent(c.e.CompleteShard(localWorkerID, g.Campaign, g.Shard, g.Token, entries, errMsg))
}

// stateFor returns a campaign's in-memory state.
func (e *Engine) stateFor(id string) (*state, bool) {
	e.mu.Lock()
	st, ok := e.campaigns[id]
	e.mu.Unlock()
	return st, ok
}

// markRunning flips a campaign to running on its first lease grant.
func (st *state) markRunning(now time.Time) {
	st.mu.Lock()
	if st.status == StatusQueued {
		st.status = StatusRunning
	}
	if st.started.IsZero() {
		st.started = now
	}
	st.mu.Unlock()
}

// pendingItems lists a shard's not-yet-journaled items and the indexes
// already done.
func (st *state) pendingItems(si int) (pending []Item, done []int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, it := range st.shards[si] {
		if _, ok := st.done[si][it.Index]; ok {
			done = append(done, it.Index)
		} else {
			pending = append(pending, it)
		}
	}
	return pending, done
}

// applyEntry journals one finished item and folds it into the in-memory
// state, keep-first: an index already recorded (a re-run under at-least-once
// dispatch) is skipped entirely, so the journal gains no duplicate line and
// the first-landed record is the one true copy. Returns whether the entry
// was fresh.
func (e *Engine) applyEntry(jw *journalWriter, st *state, si int, en journalEntry) (bool, error) {
	st.mu.Lock()
	if _, dup := st.done[si][en.Index]; dup {
		st.mu.Unlock()
		return false, nil
	}
	st.mu.Unlock()
	if err := jw.append(en); err != nil {
		return false, err
	}
	st.mu.Lock()
	st.done[si][en.Index] = en.Line
	st.instrs += en.Instrs
	if en.Div != nil {
		st.divs[en.Index] = en.Div
	}
	st.mu.Unlock()
	if en.Div != nil {
		if _, err := e.corpus.Add(st.id, en.Div); err != nil {
			return true, err
		}
	}
	return true, nil
}

// applyEntries batch-applies worker-streamed entries to one shard's journal.
func (e *Engine) applyEntries(st *state, si int, entries []journalEntry) error {
	if len(entries) == 0 {
		return nil
	}
	valid := make(map[int]bool, len(st.shards[si]))
	st.mu.Lock()
	for _, it := range st.shards[si] {
		valid[it.Index] = true
	}
	st.mu.Unlock()
	jw, err := openJournal(shardJournalPath(st.dir, si))
	if err != nil {
		return err
	}
	defer jw.Close()
	// Manifest order, not pool completion order: which seed of a batch
	// founds a corpus signature must not depend on scheduling.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Index < entries[j].Index })
	for _, en := range entries {
		if !valid[en.Index] {
			return fmt.Errorf("campaign: %s shard %d: entry index %d outside manifest", st.id, si, en.Index)
		}
		if _, err := e.applyEntry(jw, st, si, en); err != nil {
			return err
		}
	}
	return nil
}

// shardComplete reports whether every item of a shard is journaled.
func (st *state) shardComplete(si int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.done[si]) >= len(st.shards[si])
}

// maybeFinish merges and finalizes a campaign once every shard is complete.
func (e *Engine) maybeFinish(st *state) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.status == StatusDone || st.status == StatusFailed {
		return
	}
	for si := range st.shards {
		if len(st.done[si]) < len(st.shards[si]) {
			return
		}
	}
	if !st.started.IsZero() {
		st.wall += time.Since(st.started)
		st.started = time.Time{}
	}
	if err := st.writeReport(); err != nil {
		st.status = StatusFailed
		st.errMsg = err.Error()
		return
	}
	st.status = StatusDone
}

// fail marks a campaign failed and withdraws its remaining shards from
// dispatch.
func (e *Engine) fail(st *state, err error) {
	st.mu.Lock()
	st.status = StatusFailed
	st.errMsg = err.Error()
	if !st.started.IsZero() {
		st.wall += time.Since(st.started)
		st.started = time.Time{}
	}
	st.mu.Unlock()
	e.leases.Remove(st.id)
}

// completeShard releases the lease and, when the shard's journal really
// covers every item, checks the campaign for completion. A "complete" on a
// shard with missing items (a buggy or fenced-off worker) requeues the shard
// instead of wedging the campaign.
func (e *Engine) completeShard(st *state, ref shardRef, token uint64) error {
	if err := e.leases.Complete(ref, token); err != nil {
		return err
	}
	if !st.shardComplete(ref.Shard) {
		e.opts.Logf("campaign: %s completed with items missing; requeued", ref)
		e.leases.Enqueue(ref)
		return fmt.Errorf("campaign: %s: complete with items missing; requeued", ref)
	}
	e.maybeFinish(st)
	return nil
}

// ---------------------------------------------------------------------------
// Remote worker API (the engine half of /lease, /heartbeat, /complete).

// LeaseGrant is the /api/v1/lease response: everything a worker needs to run
// one shard — the manifest, the shard's item list, which items are already
// journaled, and the lease identity (token + TTL) it must renew.
type LeaseGrant struct {
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Token    uint64 `json:"token"`
	TTLMS    int64  `json:"ttl_ms"`
	Spec     *Spec  `json:"spec"`
	Items    []Item `json:"items"`
	Done     []int  `json:"done,omitempty"`
}

// AcquireShard grants the oldest pending shard to a remote worker.
// ErrNoWork when nothing is pending.
func (e *Engine) AcquireShard(workerID string) (*LeaseGrant, error) {
	e.touchWorker(workerID)
	l, err := e.leases.Acquire(workerID)
	if err != nil {
		return nil, err
	}
	st, ok := e.stateFor(l.ref.Campaign)
	if !ok {
		e.leases.Complete(l.ref, l.token)
		return nil, ErrNoWork
	}
	st.markRunning(time.Now())
	_, done := st.pendingItems(l.ref.Shard)
	st.mu.Lock()
	items := append([]Item(nil), st.shards[l.ref.Shard]...)
	spec := st.spec
	st.mu.Unlock()
	e.opts.Logf("campaign: leased %s to worker=%s token=%d", l.ref, workerID, l.token)
	return &LeaseGrant{
		Campaign: l.ref.Campaign,
		Shard:    l.ref.Shard,
		Token:    l.token,
		TTLMS:    e.opts.LeaseTTL.Milliseconds(),
		Spec:     spec,
		Items:    items,
		Done:     done,
	}, nil
}

// HeartbeatShard renews a worker's lease and journals the entries it
// streamed since the last beat. A stale token is fenced off with
// ErrLeaseLost and the entries are discarded — only the current leaseholder
// writes; the items re-run under the next lease and merge idempotently.
func (e *Engine) HeartbeatShard(workerID, campaignID string, shard int, token uint64, entries []journalEntry) (time.Duration, error) {
	e.touchWorker(workerID)
	ref := shardRef{Campaign: campaignID, Shard: shard}
	ttl, err := e.leases.Renew(ref, token)
	if err != nil {
		return 0, err
	}
	st, ok := e.stateFor(campaignID)
	if !ok {
		return 0, ErrLeaseLost
	}
	if err := e.applyEntries(st, shard, entries); err != nil {
		e.fail(st, err)
		return 0, err
	}
	return ttl, nil
}

// CompleteShard finishes a worker's shard: journal the final entries, fence-
// check the token, release the lease and (perhaps) finalize the campaign.
// workerErr marks the shard failed on the worker; a valid token then fails
// the whole campaign.
func (e *Engine) CompleteShard(workerID, campaignID string, shard int, token uint64, entries []journalEntry, workerErr string) error {
	e.touchWorker(workerID)
	ref := shardRef{Campaign: campaignID, Shard: shard}
	st, ok := e.stateFor(campaignID)
	if !ok {
		return ErrLeaseLost
	}
	if !e.leases.Holds(ref, token) {
		return ErrLeaseLost
	}
	if workerErr != "" {
		if err := e.leases.Complete(ref, token); err != nil {
			return err
		}
		e.fail(st, errors.New(workerErr))
		return nil
	}
	if err := e.applyEntries(st, shard, entries); err != nil {
		e.fail(st, err)
		return err
	}
	return e.completeShard(st, ref, token)
}

// ---------------------------------------------------------------------------

// writeReport merges the shard journals into report.jsonl: every item's line
// in manifest order, concatenation over shards in shard order. Atomic, so
// the report's existence is the done marker. Callers hold st.mu or have
// exclusive access.
func (st *state) writeReport() error {
	var buf bytes.Buffer
	for si, items := range st.shards {
		for _, it := range items {
			line, ok := st.done[si][it.Index]
			if !ok {
				return fmt.Errorf("campaign: %s: item %d missing at merge", st.id, it.Index)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	return writeAtomic(reportPath(st.dir), buf.Bytes())
}

// Close drains the engine: new submissions are rejected, the in-flight local
// shard is cancelled at the next item boundary (its finished items are
// journaled in one last heartbeat), and the dispatcher exits. Leases are
// left to age out; their shards requeue when a restarted coordinator reloads
// the journals. Safe to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
	e.cancel()
	e.wg.Wait()
}

// Draining reports whether Close has begun.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Shard lease states in the /progress view.
const (
	ShardPending = "pending"
	ShardLeased  = "leased"
	ShardDone    = "done"
)

// ShardStatus is one shard's live progress, including which worker holds its
// lease and for how long — the field that tells a stuck shard (lease aging
// toward expiry, no items landing) from a merely slow one.
type ShardStatus struct {
	Shard     int    `json:"shard"`
	ItemsDone int    `json:"items_done"`
	Items     int    `json:"items"`
	State     string `json:"state"`
	Worker    string `json:"worker,omitempty"`
	Token     uint64 `json:"token,omitempty"`
	// LeaseAgeMS is how long the current lease has been held.
	LeaseAgeMS int64 `json:"lease_age_ms,omitempty"`
}

// Status is a campaign's live progress snapshot, the /campaigns/{id} API
// document.
type Status struct {
	ID          string        `json:"id"`
	Tool        string        `json:"tool"`
	Status      string        `json:"status"`
	Error       string        `json:"error,omitempty"`
	Shards      []ShardStatus `json:"shards"`
	ItemsDone   int           `json:"items_done"`
	Items       int           `json:"items"`
	Divergences int           `json:"divergences"`
	// HostMIPS is the retired-instruction throughput of the campaign so far
	// (millions of simulated instructions per host second, summed over
	// workers). Zero for tools that do not report instruction counts.
	HostMIPS float64 `json:"host_mips,omitempty"`
}

func (st *state) snapshot() Status {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Status{ID: st.id, Tool: st.spec.Tool, Status: st.status, Error: st.errMsg,
		Divergences: len(st.divs)}
	for si, items := range st.shards {
		sh := ShardStatus{Shard: si, ItemsDone: len(st.done[si]), Items: len(items),
			State: ShardPending}
		if sh.ItemsDone >= sh.Items {
			sh.State = ShardDone
		}
		s.Shards = append(s.Shards, sh)
		s.ItemsDone += len(st.done[si])
		s.Items += len(items)
	}
	wall := st.wall
	if st.status == StatusRunning && !st.started.IsZero() {
		wall += time.Since(st.started)
	}
	if secs := wall.Seconds(); secs > 0 {
		s.HostMIPS = float64(st.instrs) / secs / 1e6
	}
	return s
}

// Get returns one campaign's status, lease assignments overlaid.
func (e *Engine) Get(id string) (Status, bool) {
	st, ok := e.stateFor(id)
	if !ok {
		return Status{}, false
	}
	s := st.snapshot()
	for i := range s.Shards {
		ref := shardRef{Campaign: id, Shard: s.Shards[i].Shard}
		if info, held := e.leases.Info(ref); held {
			s.Shards[i].State = ShardLeased
			s.Shards[i].Worker = info.Worker
			s.Shards[i].Token = info.Token
			s.Shards[i].LeaseAgeMS = info.Age.Milliseconds()
		}
	}
	return s, true
}

// List returns every campaign's status in submission order.
func (e *Engine) List() []Status {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	e.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if s, ok := e.Get(id); ok {
			out = append(out, s)
		}
	}
	return out
}

// Report returns the merged report of a finished campaign.
func (e *Engine) Report(id string) ([]byte, error) {
	st, ok := e.stateFor(id)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown campaign %q", id)
	}
	st.mu.Lock()
	status := st.status
	st.mu.Unlock()
	if status != StatusDone {
		return nil, fmt.Errorf("campaign: %s is %s, report not ready", id, status)
	}
	return os.ReadFile(reportPath(st.dir))
}

// Divergences returns a campaign's divergences in manifest order.
func (e *Engine) Divergences(id string) ([]*Divergence, error) {
	st, ok := e.stateFor(id)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown campaign %q", id)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	idx := make([]int, 0, len(st.divs))
	for i := range st.divs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]*Divergence, 0, len(idx))
	for _, i := range idx {
		d := *st.divs[i]
		out = append(out, &d)
	}
	return out, nil
}

// Repro returns the shrunken reproducer a campaign found for a seed.
func (e *Engine) Repro(id string, seed int64) (string, error) {
	divs, err := e.Divergences(id)
	if err != nil {
		return "", err
	}
	for _, d := range divs {
		if d.Seed == seed {
			if d.Shrunk == "" {
				return "", fmt.Errorf("campaign: seed %d diverged but has no shrunken repro", seed)
			}
			return d.Shrunk, nil
		}
	}
	return "", fmt.Errorf("campaign: no divergence for seed %d in %s", seed, id)
}

// Corpus exposes the engine's divergence corpus.
func (e *Engine) Corpus() *Corpus { return e.corpus }
