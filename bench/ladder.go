package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gf256"
	"repro/internal/hdfsraid"
	"repro/internal/serve"
	"repro/internal/tier"
	"repro/internal/tier/accesslog"
)

// The ladder replays the same ops, one at a time, at every layer
// boundary from the outside in. Rung r's span is the parent of rung
// r+1's span for the same op, so a layer's self time is its span minus
// the span of the rung below.
const (
	rungHTTP    = iota // loopback socket + Go HTTP stack, to an httptest server
	rungHandler        // Handler().ServeHTTP with an in-memory writer
	rungServer         // Server.Get / ReadAt / Put / Delete: ring routing
	rungStore          // the shard's Store.Get / ReadAt / PutReader / Delete
	nRungs
)

var rungNames = [nRungs]string{"net_http", "serve.handler", "serve.server", "hdfsraid.store"}

// span is one timed call: spans of one op share Op, Parent is the span
// of the rung above (0 for the outermost), times are ns from the
// trace's start.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) add(name, op string, parent int, start, end time.Time) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{id, name, int64(start.Sub(tr.t0)), int64(end.Sub(tr.t0)), parent, op})
	return id
}

// countingIO is the bench's own BlockIO: a passthrough that counts
// block reads, reads that found no block, and block writes.
type countingIO struct {
	reads, misses, writes atomic.Int64
}

func (c *countingIO) Open(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		c.misses.Add(1)
		return nil, err
	}
	c.reads.Add(1)
	return f, nil
}

func (c *countingIO) WriteFile(path string, data []byte, perm os.FileMode) error {
	c.writes.Add(1)
	return os.WriteFile(path, data, perm)
}

func (c *countingIO) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (c *countingIO) Remove(path string) error             { return os.Remove(path) }

// sink is the handler rung's ResponseWriter: it keeps the status and
// the body in a buffer reused across ops, so the allocations counted
// on that rung are the handler's own.
type sink struct {
	header http.Header
	code   int
	body   []byte
}

func (s *sink) Header() http.Header { return s.header }
func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}
func (s *sink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	s.body = append(s.body, p...)
	return len(p), nil
}

// ladderCounts sizes the ladder by payload so a rung costs about the
// same wall time for 32 KiB files and 40 MiB ones; the counts depend
// on the workload only, so every count metric repeats exactly.
func ladderCounts(w *workload) (reads, writes, degraded int) {
	clamp := func(n, lo, hi int) int { return max(lo, min(n, hi)/w.div()) }
	return clamp(64*mib/w.fileBytes, 8, 300), clamp(16*mib/w.fileBytes, 4, 60), clamp(8*mib/w.fileBytes, 2, 16)
}

// rungStats sums what the ops of one kind did at one rung:
// allocations from runtime.MemStats deltas, block I/O from the
// counting BlockIO. Divide by the op count for the per-op figure.
type rungStats struct {
	mallocs, allocBytes, blockReads, blockWrites float64
}

// ladder is the state of one traced pass.
type ladder struct {
	w      *workload
	srv    *serve.Server
	data   *dataset
	tr     *tracer
	cio    *countingIO
	ts     *httptest.Server
	client *http.Client
	h      http.Handler
	sink   sink
	buf    []byte
	// us[rung][kind][i] is op i's span in µs, ids the matching span ids,
	// stats what those ops allocated, read and wrote.
	us    [nRungs][nKinds][]float64
	ids   [nRungs][nKinds][]int
	stats [nRungs][nKinds]rungStats
	// plainUS are untraced loopback GETs: default block I/O, nothing
	// recorded. They price the tracing itself.
	plainUS []float64
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// prepare builds one op's call at one rung. Everything the bench itself
// needs — the request, the shard lookup below the router — is made
// here, so the returned call is only the layer under test; it returns
// the bytes a read produced.
func (l *ladder) prepare(rung int, o *op) func() ([]byte, error) {
	path := "/files/" + o.name
	switch rung {
	case rungHTTP, rungHandler:
		method, want := http.MethodGet, http.StatusOK
		var body io.Reader
		switch o.kind {
		case opPut:
			method, want, body = http.MethodPut, http.StatusCreated, bytes.NewReader(o.body)
		case opDelete:
			method = http.MethodDelete
		case opRange:
			want = http.StatusPartialContent
		}
		url := path
		if rung == rungHTTP {
			url = l.ts.URL + path
		}
		req := httptest.NewRequest(method, url, body)
		req.RequestURI = "" // a client request must not carry one
		if o.kind == opRange {
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", o.off, o.off+o.n-1))
		}
		check := func(code int) error {
			if code != want {
				return fmt.Errorf("%s %s: status %d, want %d", method, path, code, want)
			}
			return nil
		}
		if rung == rungHTTP {
			return func() ([]byte, error) {
				resp, err := l.client.Do(req)
				if err != nil {
					return nil, err
				}
				b := bytes.NewBuffer(l.buf[:0])
				_, err = io.Copy(b, resp.Body)
				resp.Body.Close()
				l.buf = b.Bytes()
				if err != nil {
					return nil, err
				}
				return l.buf, check(resp.StatusCode)
			}
		}
		l.sink = sink{header: http.Header{}, body: l.sink.body[:0]}
		return func() ([]byte, error) {
			l.h.ServeHTTP(&l.sink, req)
			return l.sink.body, check(l.sink.code)
		}
	}
	// In-process rungs. Below the server there is no routing.
	var st *hdfsraid.Store
	if rung == rungStore {
		st = l.srv.Shard(l.srv.ShardOf(o.name))
	}
	switch o.kind {
	case opGet:
		if st == nil {
			return func() ([]byte, error) { return l.srv.Get(o.name) }
		}
		return func() ([]byte, error) { return st.Get(o.name) }
	case opRange:
		if cap(l.buf) < o.n {
			l.buf = make([]byte, o.n)
		}
		p := l.buf[:o.n]
		readAt := l.srv.ReadAt
		if st != nil {
			readAt = st.ReadAt
		}
		return func() ([]byte, error) {
			if _, err := readAt(p, o.name, int64(o.off)); err != nil && err != io.EOF {
				return nil, err
			}
			return p, nil
		}
	case opPut:
		r := bytes.NewReader(o.body)
		if st == nil {
			return func() ([]byte, error) { return nil, l.srv.Put(o.name, r) }
		}
		return func() ([]byte, error) { return nil, st.PutReader(o.name, r) }
	}
	if st == nil {
		return func() ([]byte, error) { _, err := l.srv.Delete(o.name); return nil, err }
	}
	return func() ([]byte, error) { _, err := st.Delete(o.name); return nil, err }
}

// step replays op i of its kind at one rung, checks the reply, and —
// when traced — records the span and what the call allocated and read.
func (l *ladder) step(rung int, o *op, i int, traced bool) error {
	call := l.prepare(rung, o)
	var before, after runtime.MemStats
	reads, writes := l.cio.reads.Load(), l.cio.writes.Load()
	runtime.ReadMemStats(&before)
	start := time.Now()
	got, err := call()
	end := time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("ladder %s %s %s: %w", rungNames[rung], kindNames[o.kind], o.name, err)
	}
	if o.kind == opGet || o.kind == opRange {
		want := l.data.content(o.name, l.w.fileBytes)
		if o.kind == opRange {
			want = want[o.off : o.off+o.n]
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("ladder %s %s %s: wrong bytes", rungNames[rung], kindNames[o.kind], o.name)
		}
	}
	if !traced {
		l.plainUS = append(l.plainUS, us(end.Sub(start)))
		return nil
	}
	parent := 0
	if rung > 0 {
		parent = l.ids[rung-1][o.kind][i]
	}
	id := l.tr.add(rungNames[rung]+"."+kindNames[o.kind], fmt.Sprintf("%s-%d", kindNames[o.kind], i), parent, start, end)
	l.ids[rung][o.kind] = append(l.ids[rung][o.kind], id)
	l.us[rung][o.kind] = append(l.us[rung][o.kind], us(end.Sub(start)))
	st := &l.stats[rung][o.kind]
	st.mallocs += float64(after.Mallocs - before.Mallocs)
	st.allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	st.blockReads += float64(l.cio.reads.Load() - reads)
	st.blockWrites += float64(l.cio.writes.Load() - writes)
	return nil
}

// setBlockIO installs bio (nil for the default) on every shard.
func (l *ladder) setBlockIO(bio hdfsraid.BlockIO) {
	for i := 0; i < l.srv.NumShards(); i++ {
		l.srv.Shard(i).SetBlockIO(bio)
	}
}

// self is the median over ops of rung's span minus the span of the rung
// below for the same op.
func (l *ladder) self(rung int, kind opKind) float64 {
	outer, inner := l.us[rung][kind], l.us[rung+1][kind]
	d := make([]float64, len(outer))
	for i := range outer {
		d[i] = outer[i] - inner[i]
	}
	return median(d)
}

// runLadder is the traced pass: it fills res.layers with every ladder
// metric and writes the spans to out/trace-<workload>.json.
func runLadder(e *env, w *workload, srv *serve.Server, data *dataset, dir string, opts runOpts, res *result) error {
	nReads, nWrites, nDegraded := ladderCounts(w)
	l := &ladder{w: w, srv: srv, data: data, tr: &tracer{t0: time.Now()}, cio: &countingIO{}, h: srv.Handler()}
	l.ts = httptest.NewServer(l.h)
	defer l.ts.Close()
	l.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer l.client.CloseIdleConnections()

	// The same reads at every rung, drawn like the workload's own; the
	// writes go to private names, put then deleted, one set per rung.
	m := newMixer(w, opts.seed, 0, 1+e.nproc, 0)
	var ops [nKinds][]op
	for i := 0; i < nReads; i++ {
		ops[opGet] = append(ops[opGet], m.nextOf(opGet, 0))
		ops[opRange] = append(ops[opRange], m.nextOf(opRange, 0))
	}
	// Reads go rung by rung, outermost first. At the loopback rung each
	// GET also runs untraced, the two in alternating order.
	for rung := 0; rung < nRungs; rung++ {
		for _, kind := range []opKind{opGet, opRange} {
			for i := range ops[kind] {
				o := &ops[kind][i]
				for pass := 0; pass < 2; pass++ {
					traced := pass == i%2
					if !traced && (rung != rungHTTP || kind != opGet) {
						continue
					}
					if traced {
						l.setBlockIO(l.cio)
					} else {
						l.setBlockIO(nil)
					}
					if err := l.step(rung, o, i, traced); err != nil {
						return err
					}
				}
			}
		}
	}
	l.setBlockIO(l.cio)
	// Writes are fsync-bound and the disk's mood drifts over seconds, so
	// each private name is put at every rung back to back, then deleted
	// the same way: a rung is compared with its neighbour in time.
	body := data.content(nameOf(0), w.fileBytes)
	for _, kind := range []opKind{opPut, opDelete} {
		for i := 0; i < nWrites; i++ {
			for rung := 0; rung < nRungs; rung++ {
				o := op{kind: kind, name: fmt.Sprintf("ladder-%d-%03d", rung, i), n: w.fileBytes}
				if kind == opPut {
					o.body = body
				}
				if err := l.step(rung, &o, i, true); err != nil {
					return err
				}
			}
		}
	}
	ly := res.layers
	ly["trace.overhead_pct"] = (median(l.us[rungHTTP][opGet]) - median(l.plainUS)) / median(l.plainUS) * 100
	for _, k := range []opKind{opGet, opRange, opPut} {
		ly["net_http."+kindNames[k]+"_self_us"] = l.self(rungHTTP, k)
	}
	for k := opGet; k < nKinds; k++ {
		ly["serve.handler_"+kindNames[k]+"_self_us"] = l.self(rungHandler, k)
	}
	ly["serve.route_self_us"] = l.self(rungServer, opGet)
	perRead, perWrite := float64(nReads), float64(nWrites)
	ly["serve.get_allocs_op"] = l.stats[rungHandler][opGet].mallocs / perRead
	ly["serve.get_alloc_bytes_op"] = l.stats[rungHandler][opGet].allocBytes / perRead
	ly["serve.range_alloc_bytes_op"] = l.stats[rungHandler][opRange].allocBytes / perRead
	ly["hdfsraid.get_us"] = median(l.us[rungStore][opGet])
	ly["hdfsraid.readat_us"] = median(l.us[rungStore][opRange])
	ly["hdfsraid.put_us"] = median(l.us[rungStore][opPut])
	ly["hdfsraid.delete_us"] = median(l.us[rungStore][opDelete])
	ly["hdfsraid.get_allocs_op"] = l.stats[rungStore][opGet].mallocs / perRead
	ly["hdfsraid.put_allocs_op"] = l.stats[rungStore][opPut].mallocs / perWrite
	ly["hdfsraid.block_reads_get"] = l.stats[rungStore][opGet].blockReads / perRead
	ly["hdfsraid.block_writes_put"] = l.stats[rungStore][opPut].blockWrites / perWrite
	res.samples["hdfsraid.get_us"], res.samples["hdfsraid.readat_us"] = nReads, nReads
	res.samples["hdfsraid.put_us"], res.samples["hdfsraid.delete_us"] = nWrites, nWrites

	if err := l.degraded(nDegraded, ly); err != nil {
		return err
	}
	if err := l.maintenance(nWrites, ly); err != nil {
		return err
	}
	l.setBlockIO(nil)
	if err := kernels(w, l.data, dir, ly); err != nil {
		return err
	}

	res.traceFile = filepath.Join(e.outDir, "trace-"+w.name+".json")
	raw, err := json.Marshal(map[string]any{"workload": w.name, "seed": opts.seed, "rungs": rungNames, "spans": l.tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(res.traceFile, raw, 0o644)
}

// degraded measures reads around a lost node at the store rung, on
// private files of the store's default code and of the hot code: first
// single-block ReadAts (how many blocks a degraded read costs each
// code), then whole-file Gets.
func (l *ladder) degraded(n int, ly map[string]float64) error {
	w := l.w
	type file struct {
		name string
		st   *hdfsraid.Store
		hot  bool
	}
	var files []file
	body := l.data.content(nameOf(0), w.fileBytes)
	for i := 0; i < 2*n; i++ {
		f := file{name: fmt.Sprintf("ladder-deg-%03d", i), hot: i%2 == 1}
		f.st = l.srv.Shard(l.srv.ShardOf(f.name))
		if err := f.st.PutReader(f.name, bytes.NewReader(body)); err != nil {
			return err
		}
		if f.hot {
			if _, err := f.st.Transcode(f.name, hotCode); err != nil {
				return err
			}
		}
		files = append(files, f)
	}
	killAll := func() error {
		for i := 0; i < l.srv.NumShards(); i++ {
			if err := l.srv.Shard(i).KillNode(0); err != nil {
				return err
			}
		}
		return nil
	}

	if err := killAll(); err != nil {
		return err
	}
	block := make([]byte, w.blockSize)
	blocks := min((w.fileBytes+w.blockSize-1)/w.blockSize, 10)
	var readatUS []float64
	var reads [2]struct{ blocks, ops float64 } // [default code, hot code]
	for _, f := range files {
		for j := 0; j < blocks; j++ {
			r0, m0 := l.cio.reads.Load(), l.cio.misses.Load()
			start := time.Now()
			got, err := f.st.ReadAt(block, f.name, int64(j*w.blockSize))
			took := time.Since(start)
			if err != nil && err != io.EOF {
				return fmt.Errorf("degraded ReadAt %s block %d: %w", f.name, j, err)
			}
			if !bytes.Equal(block[:got], body[j*w.blockSize:j*w.blockSize+got]) {
				return fmt.Errorf("degraded ReadAt %s block %d: wrong bytes", f.name, j)
			}
			if l.cio.misses.Load() == m0 {
				continue // this block's first replica survived
			}
			readatUS = append(readatUS, us(took))
			c := &reads[0]
			if f.hot {
				c = &reads[1]
			}
			c.blocks += float64(l.cio.reads.Load() - r0)
			c.ops++
		}
	}
	ly["hdfsraid.readat_degraded_us"] = median(readatUS)
	for i, name := range []string{"hdfsraid.block_reads_degraded_rs", "hdfsraid.block_reads_degraded_pentagon"} {
		if reads[i].ops == 0 {
			return fmt.Errorf("%s: no single-block read ran degraded after node 0 was lost", name)
		}
		ly[name] = reads[i].blocks / reads[i].ops
	}

	// The ReadAts healed what they touched: lose the node again.
	if err := killAll(); err != nil {
		return err
	}
	var getUS []float64
	for _, f := range files {
		start := time.Now()
		got, err := f.st.Get(f.name)
		getUS = append(getUS, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("degraded Get %s: %w", f.name, err)
		}
		if !bytes.Equal(got, body) {
			return fmt.Errorf("degraded Get %s: wrong bytes", f.name)
		}
	}
	ly["hdfsraid.get_degraded_us"] = median(getUS)

	if _, err := l.srv.Repair([]int{0}); err != nil {
		return err
	}
	for _, f := range files {
		if _, err := f.st.Delete(f.name); err != nil {
			return err
		}
	}
	return nil
}

// maintenance measures a full scrub and a transcode to the hot code and
// back of private files.
func (l *ladder) maintenance(n int, ly map[string]float64) error {
	w := l.w
	start := time.Now()
	rep, err := l.srv.Scrub(0)
	if err != nil {
		return err
	}
	ly["hdfsraid.scrub_mbps"] = float64(rep.BytesScanned) / mib / time.Since(start).Seconds()

	body := l.data.content(nameOf(0), w.fileBytes)
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("ladder-tc-%03d", i)
		if err := l.srv.Put(name, bytes.NewReader(body)); err != nil {
			return err
		}
		names = append(names, name)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, code := range []string{hotCode, w.code} {
		for _, name := range names {
			if _, err := l.srv.Shard(l.srv.ShardOf(name)).Transcode(name, code); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&after)
	ly["hdfsraid.transcode_allocs_mb"] = float64(after.Mallocs-before.Mallocs) / (float64(2*n) * float64(w.fileBytes) / mib)
	for _, name := range names {
		if _, err := l.srv.Delete(name); err != nil {
			return err
		}
	}
	return nil
}

// kernels measures the layers below the store on the workload's own
// geometry: the striper, each code's decode, the GF(256) kernel, the
// heat log's append, and the device's fsync.
func kernels(w *workload, data *dataset, dir string, ly map[string]float64) error {
	rng := rand.New(rand.NewSource(1))
	payload := data.content(nameOf(0), w.fileBytes)

	// core: Striper.EncodeStream of one file's bytes, as PutReader does.
	code, err := core.New(w.code)
	if err != nil {
		return err
	}
	striper, err := core.NewStriper(code, w.blockSize)
	if err != nil {
		return err
	}
	pool := core.NewBlockPool(w.blockSize)
	reps := max(1, 64*mib/w.fileBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := striper.EncodeStream(payload, 0, pool, func(core.EncodedStripe) error { return nil }); err != nil {
			return err
		}
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	encodedMiB := float64(reps) * float64(w.fileBytes) / mib
	ly["core.encode_mbps"] = encodedMiB / took.Seconds()
	ly["core.encode_allocs_mb"] = float64(after.Mallocs-before.Mallocs) / encodedMiB

	// code: decode one stripe with data symbol 0 erased; plan the repair
	// of two lost nodes.
	for _, name := range []string{"rs-14-10", hotCode, "heptagon-local"} {
		c, err := core.New(name)
		if err != nil {
			return err
		}
		k := c.DataSymbols()
		blocks := make([][]byte, k)
		for i := range blocks {
			blocks[i] = make([]byte, w.blockSize)
			rng.Read(blocks[i])
		}
		symbols, err := c.Encode(blocks)
		if err != nil {
			return err
		}
		avail := append([][]byte(nil), symbols...)
		avail[0] = nil
		reps := max(3, min(32*mib/(k*w.blockSize), 200))
		start := time.Now()
		for i := 0; i < reps; i++ {
			got, err := c.Decode(avail)
			if err != nil {
				return err
			}
			if i == 0 && !bytes.Equal(got[0], blocks[0]) {
				return fmt.Errorf("%s decoded the erased symbol wrong", name)
			}
		}
		ly["code."+name+"_decode_mbps"] = float64(reps*k*w.blockSize) / mib / time.Since(start).Seconds()
		if name == "heptagon-local" {
			continue
		}
		planner, ok := c.(core.RepairPlanner)
		if !ok {
			return fmt.Errorf("%s cannot plan a repair", name)
		}
		plan, err := planner.PlanRepair([]int{0, 1})
		if err != nil {
			return err
		}
		ly["code."+name+"_repair_blocks"] = float64(plan.Bandwidth())
	}

	// gf256: the multiply-accumulate every encode and decode is made of.
	src, dst := make([]byte, w.blockSize), make([]byte, w.blockSize)
	rng.Read(src)
	reps = 512 * mib / w.blockSize
	start = time.Now()
	for i := 0; i < reps; i++ {
		gf256.MulAddSlice(0x57, src, dst)
	}
	ly["gf256.muladd_gbps"] = float64(reps) * float64(len(src)) / 1e9 / time.Since(start).Seconds()

	// tier: the heat append every served read pays.
	heatDir := filepath.Join(dir, "heat-probe")
	if err := os.MkdirAll(heatDir, 0o755); err != nil {
		return err
	}
	hl, err := tier.OpenHeatLog(heatDir, 24*3600, accesslog.Options{})
	if err != nil {
		return err
	}
	var touchUS []float64
	for i := 0; i < 2000; i++ {
		start := time.Now()
		err := hl.TouchExtent(nameOf(i%w.names), 0, float64(start.UnixNano())/1e9)
		touchUS = append(touchUS, us(time.Since(start)))
		if err != nil {
			hl.Close()
			return err
		}
	}
	if err := hl.Close(); err != nil {
		return err
	}
	ly["tier.touch_us"] = median(touchUS)

	ly["device.fsync_p50_us"], err = fsyncProbe(dir)
	return err
}
