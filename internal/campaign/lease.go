package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The lease registry is the coordinator's dispatch core: every unfinished
// shard of every admitted campaign is in exactly one of three states —
// pending (queued FIFO), leased (held by one worker under a time-bounded
// lease) or done — and the transitions are serialized under one mutex, which
// is what makes a double lease structurally impossible. Leases carry a
// fencing token drawn from a strictly-increasing persistent counter: a worker
// that loses its lease (missed heartbeats, coordinator restart) can never
// pass a later validity check, because any re-grant of the shard carries a
// strictly larger token and validation demands exact equality.
//
// At-least-once execution is safe on top of this because shard journals
// dedup keep-first and every item's report line is a deterministic function
// of the manifest — a re-run of a lost shard re-produces byte-identical
// lines, so whichever copy lands first is the one true record. Fencing is
// not what protects the report (determinism is); fencing protects the
// *bookkeeping*: only the current leaseholder may mark a shard complete, so
// a zombie's partial `/complete` can never freeze an unfinished shard as
// done.

// ErrLeaseLost is returned to a worker whose token no longer matches the
// shard's current lease: the lease expired and was (or will be) re-granted.
// The worker must abandon the shard and request a fresh lease.
var ErrLeaseLost = errors.New("campaign: lease lost (token fenced off)")

// ErrNoWork is returned by Acquire when no shard is pending.
var ErrNoWork = errors.New("campaign: no shard pending")

// shardRef names one shard of one campaign.
type shardRef struct {
	Campaign string
	Shard    int
}

func (r shardRef) String() string { return fmt.Sprintf("%s/shard%d", r.Campaign, r.Shard) }

// lease is one live grant.
type lease struct {
	ref     shardRef
	worker  string
	token   uint64
	granted time.Time
	expires time.Time
}

// leaseRegistry tracks pending shards and live leases across all campaigns.
type leaseRegistry struct {
	ttl   time.Duration
	now   func() time.Time
	fence *fenceCounter

	mu      sync.Mutex
	pending []shardRef          // FIFO dispatch order
	queued  map[shardRef]bool   // membership mirror of pending
	leased  map[shardRef]*lease // at most one live lease per shard
}

func newLeaseRegistry(ttl time.Duration, now func() time.Time, fence *fenceCounter) *leaseRegistry {
	if now == nil {
		now = time.Now
	}
	return &leaseRegistry{
		ttl:    ttl,
		now:    now,
		fence:  fence,
		queued: make(map[shardRef]bool),
		leased: make(map[shardRef]*lease),
	}
}

// Enqueue queues a shard for dispatch. A shard already pending or leased is
// left alone (Enqueue is idempotent, so resume paths can re-register freely).
func (lr *leaseRegistry) Enqueue(ref shardRef) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if lr.queued[ref] || lr.leased[ref] != nil {
		return
	}
	lr.pending = append(lr.pending, ref)
	lr.queued[ref] = true
}

// Acquire expires stale leases, then grants the oldest pending shard to the
// worker under a fresh lease. ErrNoWork when nothing is pending.
func (lr *leaseRegistry) Acquire(worker string) (*lease, error) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.expireLocked()
	if len(lr.pending) == 0 {
		return nil, ErrNoWork
	}
	ref := lr.pending[0]
	lr.pending = lr.pending[1:]
	delete(lr.queued, ref)
	if lr.leased[ref] != nil {
		// Structurally unreachable: a shard is never both pending and
		// leased. Guarded anyway — the chaos suite asserts it stays that
		// way.
		return nil, fmt.Errorf("campaign: shard %s already leased (invariant breach)", ref)
	}
	now := lr.now()
	l := &lease{ref: ref, worker: worker, token: lr.fence.Next(),
		granted: now, expires: now.Add(lr.ttl)}
	lr.leased[ref] = l
	return l, nil
}

// Renew extends the lease iff token exactly matches the shard's current
// live lease. Anything else — expired, re-granted, never granted, completed —
// is ErrLeaseLost.
func (lr *leaseRegistry) Renew(ref shardRef, token uint64) (time.Duration, error) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.expireLocked()
	l := lr.leased[ref]
	if l == nil || l.token != token {
		return 0, ErrLeaseLost
	}
	l.expires = lr.now().Add(lr.ttl)
	return lr.ttl, nil
}

// Complete releases the lease iff token matches, removing the shard from the
// registry entirely (the engine marks it done). A stale token is fenced off
// with ErrLeaseLost.
func (lr *leaseRegistry) Complete(ref shardRef, token uint64) error {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.expireLocked()
	l := lr.leased[ref]
	if l == nil || l.token != token {
		return ErrLeaseLost
	}
	delete(lr.leased, ref)
	return nil
}

// Holds reports whether token is the shard's current live lease token
// (heartbeat-entry application checks this before journaling).
func (lr *leaseRegistry) Holds(ref shardRef, token uint64) bool {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.expireLocked()
	l := lr.leased[ref]
	return l != nil && l.token == token
}

// ExpireStale requeues every shard whose lease deadline has passed and
// returns the expired leases (for logging).
func (lr *leaseRegistry) ExpireStale() []*lease {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.expireLocked()
}

func (lr *leaseRegistry) expireLocked() []*lease {
	now := lr.now()
	var expired []*lease
	for ref, l := range lr.leased {
		if now.After(l.expires) {
			expired = append(expired, l)
			delete(lr.leased, ref)
			if !lr.queued[ref] {
				lr.pending = append(lr.pending, ref)
				lr.queued[ref] = true
			}
		}
	}
	return expired
}

// Remove drops every shard of a campaign (failed or completed campaigns stop
// dispatching; in-flight workers get ErrLeaseLost on their next call).
func (lr *leaseRegistry) Remove(campaignID string) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	kept := lr.pending[:0]
	for _, ref := range lr.pending {
		if ref.Campaign == campaignID {
			delete(lr.queued, ref)
			continue
		}
		kept = append(kept, ref)
	}
	lr.pending = kept
	for ref := range lr.leased {
		if ref.Campaign == campaignID {
			delete(lr.leased, ref)
		}
	}
}

// Pending reports how many shards await dispatch.
func (lr *leaseRegistry) Pending() int {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return len(lr.pending)
}

// leaseInfo is the /progress view of one live lease.
type leaseInfo struct {
	Worker  string
	Token   uint64
	Age     time.Duration
	Expires time.Time
}

// Info returns the live lease on a shard, if any.
func (lr *leaseRegistry) Info(ref shardRef) (leaseInfo, bool) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	l := lr.leased[ref]
	if l == nil {
		return leaseInfo{}, false
	}
	return leaseInfo{Worker: l.worker, Token: l.token,
		Age: lr.now().Sub(l.granted), Expires: l.expires}, true
}

// fenceCounter issues strictly-increasing fencing tokens that survive
// coordinator restarts. Tokens are reserved from disk in blocks: the file
// holds the upper bound of every token ever *reservable*, so a crash loses
// at most the unissued remainder of the current block and can never reissue
// a token an old worker might still hold. One small file write per
// fenceBlock grants — in practice once per boot.
type fenceCounter struct {
	mu       sync.Mutex
	path     string
	next     uint64
	reserved uint64
}

const fenceBlock = 1 << 20

func openFence(path string) (*fenceCounter, error) {
	f := &fenceCounter{path: path}
	b, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		f.next = 1 // token 0 never issued: zero-valued requests always fence off
	case err != nil:
		return nil, err
	default:
		n, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
		if perr != nil {
			return nil, fmt.Errorf("campaign: fence file %s: %w", path, perr)
		}
		f.next = n
	}
	if err := f.reserveLocked(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *fenceCounter) reserveLocked() error {
	f.reserved = f.next + fenceBlock
	if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
		return err
	}
	return writeAtomic(f.path, []byte(strconv.FormatUint(f.reserved, 10)+"\n"))
}

// Next returns the next fencing token. Reservation failures fall back to
// burning the whole next block in memory — still strictly increasing within
// this process; the theoretical cross-restart reuse window requires the
// state directory itself to be failing.
func (f *fenceCounter) Next() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next >= f.reserved {
		if err := f.reserveLocked(); err != nil {
			f.reserved = f.next + fenceBlock
		}
	}
	t := f.next
	f.next++
	return t
}
