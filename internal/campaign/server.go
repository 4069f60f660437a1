package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// Request body caps. Specs are small; heartbeat/complete bodies carry
// streamed journal entries (report lines plus shrunken repro sources), which
// are modest per item but batch up, so they get more headroom.
const (
	maxSpecBody  = 1 << 20
	maxEntryBody = 64 << 20
)

// Wire types of the distributed campaign protocol. journalEntry (state.go)
// is the entry wire format — the same shape the coordinator journals, so a
// worker streams exactly what lands on disk.

// leaseRequest is the /api/v1/lease body.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// shardMessage is the /api/v1/heartbeat and /api/v1/complete body: the lease
// identity plus the entries finished since the last message. Error marks the
// shard failed on the worker (complete only).
type shardMessage struct {
	Worker   string         `json:"worker"`
	Campaign string         `json:"campaign"`
	Shard    int            `json:"shard"`
	Token    uint64         `json:"token"`
	Entries  []journalEntry `json:"entries,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// heartbeatResponse acknowledges a renewal with the remaining TTL.
type heartbeatResponse struct {
	TTLMS int64 `json:"ttl_ms"`
}

// healthResponse is the /healthz document.
type healthResponse struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
}

// NewHandler wires the campaign HTTP/JSON API (stdlib net/http only):
//
//	POST /api/v1/campaigns                   submit a Spec, returns {"id": ...}
//	GET  /api/v1/campaigns                   list campaign statuses
//	GET  /api/v1/campaigns/{id}              one campaign's live status (per-shard
//	                                         lease assignment + age included)
//	GET  /api/v1/campaigns/{id}/report       merged report (JSONL; 409 until done)
//	GET  /api/v1/campaigns/{id}/divergences  divergence records
//	GET  /api/v1/campaigns/{id}/repro/{seed} shrunken reproducer (assembly)
//	GET  /api/v1/corpus                      deduplicated divergence corpus
//	POST /api/v1/lease                       worker pulls a shard lease (204: no work)
//	POST /api/v1/heartbeat                   renew a lease + stream finished entries
//	POST /api/v1/complete                    finish a shard (409: token fenced off)
//	GET  /healthz                            {"status":"ok","workers":N}, 503 draining
//
// Submissions and lease traffic during drain get 503 so a supervisor
// restarting the daemon can tell "retry later" from a bad request; workers
// back off and re-poll until the restarted coordinator re-grants the
// requeued shards.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if e.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, healthResponse{Status: "ok", Workers: e.WorkerCount()})
	})

	mux.HandleFunc("POST /api/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		if e.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		spec := new(Spec)
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody)).Decode(spec); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		id, err := e.Submit(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})

	mux.HandleFunc("GET /api/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, e.List())
	})

	mux.HandleFunc("GET /api/v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := e.Get(r.PathValue("id"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, s)
	})

	mux.HandleFunc("GET /api/v1/campaigns/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s, ok := e.Get(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		if s.Status != StatusDone {
			http.Error(w, "campaign is "+s.Status+"; report not ready", http.StatusConflict)
			return
		}
		b, err := e.Report(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		w.Write(b)
	})

	mux.HandleFunc("GET /api/v1/campaigns/{id}/divergences", func(w http.ResponseWriter, r *http.Request) {
		divs, err := e.Divergences(r.PathValue("id"))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		if divs == nil {
			divs = []*Divergence{}
		}
		writeJSON(w, divs)
	})

	mux.HandleFunc("GET /api/v1/campaigns/{id}/repro/{seed}", func(w http.ResponseWriter, r *http.Request) {
		seed, err := strconv.ParseInt(r.PathValue("seed"), 10, 64)
		if err != nil {
			http.Error(w, "bad seed", http.StatusBadRequest)
			return
		}
		src, err := e.Repro(r.PathValue("id"), seed)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(src))
	})

	mux.HandleFunc("GET /api/v1/corpus", func(w http.ResponseWriter, r *http.Request) {
		entries := e.Corpus().Entries()
		if entries == nil {
			entries = []*CorpusEntry{}
		}
		writeJSON(w, entries)
	})

	// --- distributed worker protocol ---

	mux.HandleFunc("POST /api/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if e.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		var req leaseRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Worker == "" || req.Worker == localWorkerID {
			http.Error(w, "campaign: lease needs a non-reserved worker id", http.StatusBadRequest)
			return
		}
		grant, err := e.AcquireShard(req.Worker)
		if errors.Is(err, ErrNoWork) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, grant)
	})

	mux.HandleFunc("POST /api/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if e.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		msg, ok := decodeShardMessage(w, r)
		if !ok {
			return
		}
		ttl, err := e.HeartbeatShard(msg.Worker, msg.Campaign, msg.Shard, msg.Token, msg.Entries)
		if errors.Is(err, ErrLeaseLost) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, heartbeatResponse{TTLMS: ttl.Milliseconds()})
	})

	mux.HandleFunc("POST /api/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		if e.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		msg, ok := decodeShardMessage(w, r)
		if !ok {
			return
		}
		err := e.CompleteShard(msg.Worker, msg.Campaign, msg.Shard, msg.Token, msg.Entries, msg.Error)
		if errors.Is(err, ErrLeaseLost) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]string{"status": "ok"})
	})

	return mux
}

func decodeShardMessage(w http.ResponseWriter, r *http.Request) (shardMessage, bool) {
	var msg shardMessage
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEntryBody)).Decode(&msg); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return msg, false
	}
	if msg.Worker == "" || msg.Worker == localWorkerID || msg.Campaign == "" {
		http.Error(w, "campaign: a non-reserved worker id and a campaign are required", http.StatusBadRequest)
		return msg, false
	}
	return msg, true
}

// writeJSON encodes v to a buffer first so an encode failure surfaces as a
// 500 instead of a silently truncated 200 body.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, "campaign: encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// HardenServer applies the timeout discipline every xtcampd listener gets:
// slowloris-resistant header reads, bounded request reads, and idle-
// connection reaping. Worker long-polls are not used by the protocol (lease
// misses return 204 immediately), so flat read timeouts are safe.
func HardenServer(srv *http.Server) {
	srv.ReadHeaderTimeout = 5 * time.Second
	srv.ReadTimeout = 60 * time.Second
	srv.IdleTimeout = 120 * time.Second
}
