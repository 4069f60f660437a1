package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Name is "<layer>.<call>";
// Op groups the spans of one benchmark op (-1 for set-up and verification).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// rawSpan is a span as recorded. It holds no pointers, so however long the
// log grows the garbage collector never scans it.
type rawSpan struct {
	parent, op, name int // name indexes tracer.names
	start, end       int64
}

// tracer records spans and counts in memory. Every method is a no-op on a nil
// tracer, so the untraced run executes the same code with tracing off.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []rawSpan
	names  []string
	nameID map[string]int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]rawSpan, 0, 1<<14),
		nameID: map[string]int{}, counts: map[string]float64{}}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nameID[name]
	if !ok {
		n = len(t.names)
		t.names = append(t.names, name)
		t.nameID[name] = n
	}
	t.spans = append(t.spans, rawSpan{parent: parent, op: op, name: n, start: now})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = now
	return time.Duration(s.end - s.start)
}

// add bumps a named count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// allocBytes reads the process's cumulative heap allocation without stopping
// the world (runtime.ReadMemStats would).
func (t *tracer) allocBytes() uint64 {
	if t == nil {
		return 0
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// closed returns every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end != 0 {
			out = append(out, span{ID: i + 1, Parent: s.parent, Op: s.op, Name: t.names[s.name],
				Start: s.start, End: s.end})
		}
	}
	return out
}

// selfTimes sums self time by key (a span's layer or its name): each span's
// duration minus the part of its interval that its child spans cover.
func selfTimes(spans []span, key func(span) string) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[key(s)] += s.dur() - time.Duration(coveredNS(s.Start, s.End, children[s.ID]))
	}
	return self
}

// coveredNS is the length of [lo, hi) covered by the union of the intervals.
func coveredNS(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, cur int64 = 0, lo
	for _, c := range iv {
		a, b := max(c[0], cur), min(c[1], hi)
		if b > a {
			covered += b - a
			cur = b
		}
	}
	return covered
}

// share is one row of a self-time table.
type share struct {
	Key  string
	Self time.Duration
	Pct  float64
}

// shares converts self times into percentages of their sum, largest first.
func shares(self map[string]time.Duration) []share {
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	out := make([]share, 0, len(self))
	for l, d := range self {
		pct := 0.0
		if sum > 0 {
			pct = 100 * float64(d) / float64(sum)
		}
		out = append(out, share{l, d, pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func printShares(title string, rows []share) {
	fmt.Printf("%s\n  %-28s %12s %8s\n", title, "", "self_ms", "share")
	for _, s := range rows {
		fmt.Printf("  %-28s %12.1f %7.1f%%\n", s.Key, ms(s.Self), s.Pct)
	}
}

// writeSpans writes the spans as JSON lines once the run is over.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
