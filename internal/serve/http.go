package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/hdfsraid"
)

// Handler returns the serving API:
//
//	PUT    /files/{name}            streaming ingest (chunked bodies ok)
//	GET    /files/{name}            whole file, or one range via Range: bytes=
//	                                (HEAD: the headers, from the manifest)
//	DELETE /files/{name}            remove the file
//	GET    /files                   sorted name list (JSON)
//	GET    /stats                   merged obs snapshot across shards (JSON);
//	                                ?shard=N for a single shard
//	POST   /admin/scrub?budget=MB   scrub every shard (JSON report)
//	POST   /admin/repair?node=N     rebuild node N on every shard (repeatable)
//	POST   /admin/reshard?to=N      start a live reshard to N shards (202)
//	POST   /admin/reshard/resume    resume a pending reshard (202)
//	GET    /admin/reshard           reshard progress (JSON)
//	GET    /healthz                 liveness
//
// Every data operation resolves the name through the ring and runs
// entirely inside one shard's store; the handler itself holds no
// locks, so requests to distinct shards never contend above the disk.
// During a reshard a name mid-move answers 503 + Retry-After rather
// than a wrong answer or a 404 (see ErrMidMove).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /files/{name}", s.handlePut)
	mux.HandleFunc("GET /files/{name}", s.handleGet)
	mux.HandleFunc("DELETE /files/{name}", s.handleDelete)
	mux.HandleFunc("GET /files", s.handleList)
	mux.HandleFunc("GET /files/{$}", s.handleList)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /admin/scrub", s.handleScrub)
	mux.HandleFunc("POST /admin/repair", s.handleRepair)
	mux.HandleFunc("POST /admin/reshard", s.handleReshardStart)
	mux.HandleFunc("POST /admin/reshard/resume", s.handleReshardResume)
	mux.HandleFunc("GET /admin/reshard", s.handleReshardStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// httpError maps store sentinels onto status codes; everything else is
// a 500. The body is the error's one-line rendering. A mid-move name
// (reshard in flight, neither ring's shard holds it yet) is 503 with
// a Retry-After — a short availability gap, retryable by contract.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrMidMove):
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	case errors.Is(err, hdfsraid.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, hdfsraid.ErrExists):
		code = http.StatusConflict
	}
	http.Error(w, err.Error(), code)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.Put(name, r.Body); err != nil {
		httpError(w, err)
		return
	}
	fi, _ := s.Info(name)
	writeJSON(w, http.StatusCreated, map[string]any{"name": name, "length": fi.Length, "shard": s.ShardOf(name)})
}

// handleGet serves a file, whole or one byte range, through the one
// read path, Server.ReadTo. Nothing is sent until the first extent's
// bytes are in hand, so an unreadable file answers with a status; a
// failure after that aborts the connection — a short body, never a
// wrong one. HEAD is the empty read: begin learns the length from the
// manifest, no block is read, no heat fed, nothing recorded.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	// Multi-range or malformed: the whole file, as RFC 9110 permits.
	off, n, ranged := parseRange(r.Header.Get("Range"))
	switch {
	case r.Method == http.MethodHead:
		off, n, ranged = 0, 0, false
	case !ranged:
		off, n = 0, -1
	}
	begun, refused := false, errors.New("range not satisfiable") // begin's own 416
	_, err := s.ReadTo(w, r.PathValue("name"), off, n, func(length, off, n int64) error {
		begun = true
		h := w.Header()
		if ranged && n == 0 {
			h.Set("Content-Range", fmt.Sprintf("bytes */%d", length))
			http.Error(w, "range out of bounds", http.StatusRequestedRangeNotSatisfiable)
			return refused
		}
		status := http.StatusOK
		if ranged {
			h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, length))
			status = http.StatusPartialContent
		} else {
			n = length // what a HEAD promises, too
		}
		// Stored bytes are opaque: no client may sniff a type out of them.
		h.Set("Content-Type", "application/octet-stream")
		h.Set("X-Content-Type-Options", "nosniff")
		h.Set("Accept-Ranges", "bytes")
		h.Set("Content-Length", strconv.FormatInt(n, 10))
		w.WriteHeader(status)
		return nil
	})
	switch {
	case err == nil || err == refused:
	case begun:
		panic(http.ErrAbortHandler)
	default:
		httpError(w, err)
	}
}

// parseRange parses a single-range "bytes=a-b" header into (offset,
// count): "a-b" → (a, b-a+1), "a-" → (a, -1 = rest), "-k" → (-k, -1 =
// suffix), "-0" → (0, 0): a suffix of no bytes, which no file can
// satisfy (RFC 9110 §14.1.2). ok is false for anything else (no ranges,
// several ranges, garbage), which callers treat as "serve the whole
// file".
func parseRange(h string) (off, n int64, ok bool) {
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	lo, hi, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return 0, 0, false
	}
	if lo == "" { // suffix range: -k
		k, err := strconv.ParseInt(hi, 10, 64)
		if err != nil || k < 0 {
			return 0, 0, false
		}
		if k == 0 {
			return 0, 0, true
		}
		return -k, -1, true
	}
	start, err := strconv.ParseInt(lo, 10, 64)
	if err != nil || start < 0 {
		return 0, 0, false
	}
	if hi == "" { // open-ended: a-
		return start, -1, true
	}
	end, err := strconv.ParseInt(hi, 10, 64)
	if err != nil || end < start {
		return 0, 0, false
	}
	if end == math.MaxInt64 { // past any file's last byte: a-, and b-a+1 cannot overflow
		return start, -1, true
	}
	return start, end - start + 1, true
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	removed, err := s.Delete(name)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "blocks_removed": removed})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Files())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if q := r.URL.Query().Get("shard"); q != "" {
		i, err := strconv.Atoi(q)
		if err != nil {
			http.Error(w, "bad shard index", http.StatusBadRequest)
			return
		}
		snap, ok := s.ShardStats(i)
		if !ok {
			http.Error(w, fmt.Sprintf("no shard %d (have %d)", i, s.NumShards()), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, snap)
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	var budget int64
	if q := r.URL.Query().Get("budget"); q != "" {
		mb, err := strconv.ParseFloat(q, 64)
		if err != nil || mb < 0 {
			http.Error(w, "bad scrub budget", http.StatusBadRequest)
			return
		}
		budget = int64(mb * 1e6)
	}
	rep, err := s.Scrub(budget)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleReshardStart begins a live reshard to ?to=N shards. The move
// runs in the background; the response is the initial status.
func (s *Server) handleReshardStart(w http.ResponseWriter, r *http.Request) {
	rc := s.reshardControl()
	if rc == nil {
		http.Error(w, "no reshard controller attached to this server", http.StatusNotImplemented)
		return
	}
	to, err := strconv.Atoi(r.URL.Query().Get("to"))
	if err != nil || to <= 0 {
		http.Error(w, "reshard needs ?to=N (target shard count)", http.StatusBadRequest)
		return
	}
	if err := rc.Start(to); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusAccepted, rc.Status())
}

// handleReshardResume resumes a pending reshard in the background.
func (s *Server) handleReshardResume(w http.ResponseWriter, r *http.Request) {
	rc := s.reshardControl()
	if rc == nil {
		http.Error(w, "no reshard controller attached to this server", http.StatusNotImplemented)
		return
	}
	if err := rc.Resume(); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusAccepted, rc.Status())
}

// handleReshardStatus reports reshard progress.
func (s *Server) handleReshardStatus(w http.ResponseWriter, _ *http.Request) {
	rc := s.reshardControl()
	if rc == nil {
		writeJSON(w, http.StatusOK, ReshardStatus{Epoch: s.ReshardEpoch()})
		return
	}
	writeJSON(w, http.StatusOK, rc.Status())
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	var nodes []int
	for _, q := range r.URL.Query()["node"] {
		n, err := strconv.Atoi(q)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad node %q", q), http.StatusBadRequest)
			return
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		http.Error(w, "repair needs at least one ?node=N", http.StatusBadRequest)
		return
	}
	rep, err := s.Repair(nodes)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
