package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xt910/internal/retry"
	"xt910/internal/sched"
)

// WorkerOptions configures one campaign worker process (cmd/xtworker, or an
// in-process worker in tests).
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port). Required.
	Coordinator string
	// ID is the worker's identity in leases and /progress. Required.
	ID string
	// Jobs is the item pool width within a shard (<= 0: the shard spec's
	// Jobs, then GOMAXPROCS). Any width produces identical report lines.
	Jobs int
	// Runner substitutes the item executor (tests); nil selects the real
	// tool runner.
	Runner Runner
	// Client substitutes the HTTP client (tests inject chaos transports);
	// nil uses a fresh client with a 30s per-request timeout.
	Client *http.Client
	// Poll is the idle re-poll interval when the coordinator has no work
	// (<= 0: 500ms). Polling doubles as the worker's liveness signal while
	// idle.
	Poll time.Duration
	// Retry shapes the backoff for transient coordinator failures
	// (connection refused, 5xx/503 drain). Zero value: retry.Default().
	Retry retry.Policy
	// Seed seeds the backoff jitter stream; 0 derives one from ID, so a
	// restarted fleet does not stampede in phase.
	Seed int64
	// Logf receives worker log lines; nil discards them.
	Logf func(format string, args ...any)
	// MaxShards stops the worker after completing (or abandoning) this many
	// shards; 0 runs until ctx ends. Tests and drain scripts use it.
	MaxShards int

	// DropHeartbeat is a chaos hook: when it returns true the worker
	// silently skips sending that heartbeat (simulating heartbeat loss
	// without killing the worker). Nil: never drop.
	DropHeartbeat func() bool
}

// RunWorker pulls shard leases from the coordinator at opts.Coordinator and
// executes them until ctx ends (or MaxShards is reached). It runs the same
// loop as the coordinator's own in-process executor, only over HTTP.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Coordinator == "" || opts.ID == "" {
		return fmt.Errorf("campaign: worker needs Coordinator and ID")
	}
	if opts.ID == localWorkerID {
		return fmt.Errorf("campaign: worker id %q is reserved", localWorkerID)
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	runWorker(ctx, opts, &httpCoordinator{base: opts.Coordinator, id: opts.ID, client: opts.Client})
	return nil
}

// runWorker is the one shard executor: items run on a sched pool through
// the Runner, finished entries stream back on every heartbeat, and the final
// batch rides the complete call. Transient coordinator failures back off on
// the seeded retry schedule; a fencing rejection (ErrLeaseLost) abandons the
// shard immediately — some newer lease owns it, and at-least-once
// re-execution is safe by journal keep-first.
func runWorker(ctx context.Context, opts WorkerOptions, coord coordinator) {
	if opts.Runner == nil {
		opts.Runner = toolRunner{}
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if (opts.Retry == retry.Policy{}) {
		opts.Retry = retry.Default()
	}
	if opts.Seed == 0 {
		h := fnv.New64a()
		io.WriteString(h, opts.ID)
		opts.Seed = int64(h.Sum64())
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}

	w := &worker{opts: opts, coord: coord, backoff: retry.New(opts.Retry, opts.Seed)}
	completed := 0
	for ctx.Err() == nil {
		grant, err := coord.lease(ctx)
		if err != nil {
			w.sleepBackoff(ctx)
			continue
		}
		if grant == nil { // no work pending
			w.backoff.Reset()
			w.sleep(ctx, opts.Poll)
			continue
		}
		w.backoff.Reset()
		w.runShard(ctx, grant)
		completed++
		if opts.MaxShards > 0 && completed >= opts.MaxShards {
			break
		}
	}
}

type worker struct {
	opts    WorkerOptions
	coord   coordinator
	backoff *retry.Backoff
}

func (w *worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// backoffDelay yields the next lease-loop delay. Once a bounded policy's
// attempt budget runs out the loop must keep probing the coordinator anyway,
// so it holds at the poll cadence instead of spinning on zero-length sleeps.
func (w *worker) backoffDelay() time.Duration {
	if d, ok := w.backoff.Next(); ok {
		return d
	}
	return w.opts.Poll
}

func (w *worker) sleepBackoff(ctx context.Context) {
	w.sleep(ctx, w.backoffDelay())
}

// coordinator is the worker loop's side of the shard lease protocol. The
// HTTP client serves remote workers; the Engine's localCoordinator serves
// its own in-process executor. Errors that must not be retried are wrapped
// with retry.Permanent.
type coordinator interface {
	// lease grants the oldest pending shard; a nil grant means no work.
	lease(ctx context.Context) (*LeaseGrant, error)
	// heartbeat renews g's lease and journals entries. A fenced-off token
	// yields an error wrapping ErrLeaseLost.
	heartbeat(ctx context.Context, g *LeaseGrant, entries []journalEntry) error
	// complete journals the final entries and releases the lease; a
	// non-empty errMsg fails the campaign instead.
	complete(ctx context.Context, g *LeaseGrant, entries []journalEntry, errMsg string) error
}

// httpCoordinator speaks the /api/v1 worker protocol to a remote xtcampd.
type httpCoordinator struct {
	base   string
	id     string
	client *http.Client
}

func (c *httpCoordinator) lease(ctx context.Context) (*LeaseGrant, error) {
	var grant LeaseGrant
	code, err := c.post(ctx, "/api/v1/lease", leaseRequest{Worker: c.id}, &grant)
	if err != nil || code == http.StatusNoContent {
		return nil, err
	}
	return &grant, nil
}

func (c *httpCoordinator) heartbeat(ctx context.Context, g *LeaseGrant, entries []journalEntry) error {
	_, err := c.post(ctx, "/api/v1/heartbeat", shardMessage{Worker: c.id, Campaign: g.Campaign,
		Shard: g.Shard, Token: g.Token, Entries: entries}, nil)
	return err
}

func (c *httpCoordinator) complete(ctx context.Context, g *LeaseGrant, entries []journalEntry, errMsg string) error {
	_, err := c.post(ctx, "/api/v1/complete", shardMessage{Worker: c.id, Campaign: g.Campaign,
		Shard: g.Shard, Token: g.Token, Entries: entries, Error: errMsg}, nil)
	return err
}

// post sends one JSON request and classifies the reply: 409 is the fencing
// rejection (ErrLeaseLost), other 4xx except 429 are permanent protocol
// errors, and network errors, 429 and 5xx are transient.
func (c *httpCoordinator) post(ctx context.Context, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	code := resp.StatusCode
	if code == http.StatusNoContent {
		return code, nil
	}
	if code/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		err := fmt.Errorf("campaign: coordinator replied %d: %s", code, bytes.TrimSpace(msg))
		switch {
		case code == http.StatusConflict:
			return code, retry.Permanent(fmt.Errorf("%w (%v)", ErrLeaseLost, err))
		case code/100 == 4 && code != http.StatusTooManyRequests:
			return code, retry.Permanent(err)
		}
		return code, err
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return code, err
		}
	}
	return code, nil
}

// entryBuffer accumulates finished entries between heartbeats.
type entryBuffer struct {
	mu      sync.Mutex
	entries []journalEntry
}

func (b *entryBuffer) add(e journalEntry) {
	b.mu.Lock()
	b.entries = append(b.entries, e)
	b.mu.Unlock()
}

// take drains the buffer; give returns entries after a failed send.
func (b *entryBuffer) take() []journalEntry {
	b.mu.Lock()
	out := b.entries
	b.entries = nil
	b.mu.Unlock()
	return out
}

func (b *entryBuffer) give(es []journalEntry) {
	if len(es) == 0 {
		return
	}
	b.mu.Lock()
	b.entries = append(es, b.entries...)
	b.mu.Unlock()
}

// entryBatchBytes bounds the encoded entry payload of one worker POST,
// leaving the coordinator's maxEntryBody request cap ample headroom for the
// envelope fields and encoder overhead.
const entryBatchBytes = maxEntryBody / 2

// splitEntryBatches cuts entries into consecutive sub-slices whose summed
// encoded sizes stay under limit, so a backlog accumulated during a long
// partition never produces a request the coordinator rejects with 413. A
// single entry over the limit still gets its own batch — splitting cannot
// shrink it, and nothing the runner emits approaches the cap. An empty
// input yields one empty batch (a bare lease renewal).
func splitEntryBatches(entries []journalEntry, limit int) [][]journalEntry {
	if len(entries) == 0 {
		return [][]journalEntry{nil}
	}
	var batches [][]journalEntry
	start, size := 0, 0
	for i, e := range entries {
		b, _ := json.Marshal(e)
		n := len(b) + 1 // separator
		if i > start && size+n > limit {
			batches = append(batches, entries[start:i])
			start, size = i, 0
		}
		size += n
	}
	return append(batches, entries[start:])
}

// flattenBatches rejoins a tail of batches (after a mid-stream send failure)
// so the unsent entries can go back into the buffer in order.
func flattenBatches(batches [][]journalEntry) []journalEntry {
	if len(batches) == 1 {
		return batches[0]
	}
	var out []journalEntry
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// drainFlushTimeout bounds the last heartbeat a cancelled worker makes to
// hand over its finished entries.
const drainFlushTimeout = 2 * time.Second

// runShard executes one leased shard: the not-yet-done items on a sched
// pool, heartbeats (with streamed entries) every TTL/3, the remainder on
// complete. A fenced-off heartbeat cancels the run mid-shard. When ctx ends
// mid-shard, one last heartbeat hands the finished entries over so they are
// journaled; the shard itself resumes elsewhere or on restart.
func (w *worker) runShard(ctx context.Context, g *LeaseGrant) {
	ttl := time.Duration(g.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	doneSet := make(map[int]bool, len(g.Done))
	for _, i := range g.Done {
		doneSet[i] = true
	}
	var pending []Item
	for _, it := range g.Items {
		if !doneSet[it.Index] {
			pending = append(pending, it)
		}
	}
	w.opts.Logf("worker %s: leased %s/shard%d token=%d (%d/%d items pending)",
		w.opts.ID, g.Campaign, g.Shard, g.Token, len(pending), len(g.Items))

	width := w.opts.Jobs
	if width <= 0 {
		width = g.Spec.Jobs
	}
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}

	var buf entryBuffer
	var fenced atomic.Bool // set by the heartbeat loop before it cancels
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat loop: renew the lease and stream the entries finished since
	// the last beat, in batches bounded under the coordinator's request cap.
	// Transient failures put the unsent entries back and try again next tick
	// (the TTL gives us ~3 misses of slack); a fenced-off token means some
	// newer lease owns the shard — abandon it, the work re-runs elsewhere.
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-t.C:
			}
			if w.opts.DropHeartbeat != nil && w.opts.DropHeartbeat() {
				w.opts.Logf("worker %s: chaos: dropping heartbeat for %s/shard%d",
					w.opts.ID, g.Campaign, g.Shard)
				continue
			}
			batches := splitEntryBatches(buf.take(), entryBatchBytes)
			for bi, batch := range batches {
				err := w.coord.heartbeat(shardCtx, g, batch)
				if err == nil {
					continue
				}
				if errors.Is(err, ErrLeaseLost) {
					w.opts.Logf("worker %s: lease on %s/shard%d fenced off; abandoning",
						w.opts.ID, g.Campaign, g.Shard)
					fenced.Store(true)
					cancel()
					return
				}
				// Transient (partition, drain, 5xx): keep this batch and the
				// unsent remainder for the next beat and keep computing.
				buf.give(flattenBatches(batches[bi:]))
				w.opts.Logf("worker %s: heartbeat failed (will retry): %v", w.opts.ID, err)
				break
			}
		}
	}()

	jobs := make([]sched.Job, len(pending))
	for j, it := range pending {
		it := it
		jobs[j] = sched.Job{
			ID: fmt.Sprintf("%s/shard%d/%s", g.Campaign, g.Shard, it.Key()),
			Run: func(jctx context.Context) (any, error) {
				res, err := w.opts.Runner.Run(jctx, g.Spec, it)
				return res, err
			},
		}
	}
	rs := sched.Run(shardCtx, jobs, sched.Options{
		Workers: width,
		OnResult: func(j int, r sched.Result) {
			if r.Err != nil {
				return
			}
			res := r.Value.(ItemResult)
			buf.add(journalEntry{Index: pending[j].Index, Line: res.Line,
				Div: res.Div, Instrs: r.Instrs})
		},
	})
	cancel()
	hbWG.Wait()

	if ctx.Err() != nil {
		w.flush(ctx, g, buf.take())
		return
	}
	itemErr := sched.FirstError(rs)
	if fenced.Load() && itemErr != nil {
		// Abandoned mid-run by the fenced-off heartbeat loop: the shard is
		// someone else's now, nothing to send. (itemErr == nil means every
		// item finished before the cancel landed — fall through and offer
		// the completion; the token check decides.)
		return
	}

	// Completion retries transient failures on the seeded backoff, bounded:
	// past a handful of attempts the lease has aged out anyway and the shard
	// will re-run elsewhere.
	policy := w.opts.Retry
	if policy.Attempts == 0 {
		policy.Attempts = 8
	}

	// A long partition can leave more finished entries than one request's
	// budget. Stream all but the last batch down over heartbeats first —
	// those entries journal durably — so the complete body itself always
	// fits under the coordinator's cap.
	batches := splitEntryBatches(buf.take(), entryBatchBytes)
	for bi, batch := range batches[:len(batches)-1] {
		err := retry.Do(ctx, policy, w.opts.Seed+int64(g.Token)+int64(bi), func() error {
			return w.coord.heartbeat(ctx, g, batch)
		})
		if err != nil {
			w.opts.Logf("worker %s: draining entries for %s/shard%d token=%d failed: %v",
				w.opts.ID, g.Campaign, g.Shard, g.Token, err)
			return
		}
	}

	errMsg := ""
	if itemErr != nil {
		errMsg = itemErr.Error()
	}
	err := retry.Do(ctx, policy, w.opts.Seed+int64(g.Token), func() error {
		return w.coord.complete(ctx, g, batches[len(batches)-1], errMsg)
	})
	if err != nil {
		w.opts.Logf("worker %s: complete %s/shard%d token=%d not accepted: %v",
			w.opts.ID, g.Campaign, g.Shard, g.Token, err)
		return
	}
	w.opts.Logf("worker %s: completed %s/shard%d token=%d", w.opts.ID, g.Campaign, g.Shard, g.Token)
}

// flush is the drain path of a cancelled shard: one heartbeat carries the
// finished entries, on a context detached from the cancelled one and bounded
// by drainFlushTimeout. A worker with nothing finished sends nothing.
func (w *worker) flush(ctx context.Context, g *LeaseGrant, entries []journalEntry) {
	if len(entries) == 0 {
		return
	}
	fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainFlushTimeout)
	defer cancel()
	for _, batch := range splitEntryBatches(entries, entryBatchBytes) {
		if err := w.coord.heartbeat(fctx, g, batch); err != nil {
			w.opts.Logf("worker %s: draining %d entries for %s/shard%d failed: %v",
				w.opts.ID, len(entries), g.Campaign, g.Shard, err)
			return
		}
	}
}
