package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
)

type opKind int

const (
	opGet opKind = iota
	opRange
	opPut
	opDelete
	nKinds
)

var kindNames = [nKinds]string{"get", "range", "put", "delete"}

// deadline is the latest an op may finish after its intended send time
// and still count as served.
const deadline = time.Second

// op is one generated request. The served program only ever sees ops.
type op struct {
	kind opKind
	name string
	// off, n: the byte window a read must return (the whole file for a
	// GET), or the length of a PUT's body.
	off, n int
	// at is the intended send time as an offset from the phase start;
	// open-loop latency is charged from it.
	at time.Duration
	// body is a PUT's payload, generated with the op so that no timed
	// window pays for it.
	body []byte
}

func nameOf(i int) string { return fmt.Sprintf("f%05d", i) }

// dataset holds the preloaded working set's contents. Every name's
// bytes are loadgen.Content(name, n), so any reader can verify any
// read; preloaded names are cached because they are read constantly.
type dataset struct {
	pre map[string][]byte
}

func newDataset(w *workload) *dataset {
	d := &dataset{pre: make(map[string][]byte, w.names)}
	for i := 0; i < w.names; i++ {
		d.pre[nameOf(i)] = loadgen.Content(nameOf(i), w.fileBytes)
	}
	return d
}

func (d *dataset) content(name string, n int) []byte {
	if b, ok := d.pre[name]; ok && len(b) == n {
		return b
	}
	return loadgen.Content(name, n)
}

// liveSet tracks which names the store should hold, so the end-of-run
// read-back knows what to expect after a churn of PUTs and DELETEs.
type liveSet struct {
	mu    sync.Mutex
	sizes map[string]int
}

func newLiveSet(w *workload) *liveSet {
	l := &liveSet{sizes: make(map[string]int, w.names)}
	for i := 0; i < w.names; i++ {
		l.sizes[nameOf(i)] = w.fileBytes
	}
	return l
}

func (l *liveSet) apply(o *op) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch o.kind {
	case opPut:
		l.sizes[o.name] = o.n
	case opDelete:
		delete(l.sizes, o.name)
	}
}

func (l *liveSet) names() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.sizes))
	for n := range l.sizes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// mixer draws one stream of ops from a workload's mix. Reads pick among
// the names no stream ever deletes; a DELETE takes the stream's own
// oldest PUT once it is minAge old and otherwise a preloaded name
// reserved for this stream, so no op can meet a 404 by construction.
type mixer struct {
	w        *workload
	rng      *rand.Rand
	zipf     *rand.Zipf
	readable int
	victims  []string
	prefix   string
	minAge   time.Duration
	seq      int
	puts     []op
}

// victimCount is how many preloaded names a mutating stream may
// delete: the open-loop schedule (stream 0) needs enough to last until
// its own PUTs are deleteAge old, a closed-loop client only until its
// first PUT is answered.
func victimCount(w *workload, stream int) int {
	switch {
	case w.mix[opDelete] == 0:
		return 0
	case stream == 0:
		return w.names * 3 / 8
	}
	return w.names / 16
}

// newMixer returns stream number stream (0 is the open-loop schedule,
// 1.. are the closed-loop clients) of streams in total. The preloaded
// names are laid out as [readable | stream 0's victims | stream 1's | …].
func newMixer(w *workload, seed int64, stream, streams int, minAge time.Duration) *mixer {
	m := &mixer{
		w:        w,
		rng:      rand.New(rand.NewSource(seed*1000 + int64(stream))),
		readable: w.names,
		prefix:   fmt.Sprintf("s%d-%d", seed, stream),
		minAge:   minAge,
	}
	first := 0
	for s := 0; s < streams; s++ {
		m.readable -= victimCount(w, s)
		if s < stream {
			first += victimCount(w, s)
		}
	}
	for i := 0; i < victimCount(w, stream); i++ {
		m.victims = append(m.victims, nameOf(m.readable+first+i))
	}
	if w.zipfS > 1 {
		m.zipf = rand.NewZipf(m.rng, w.zipfS, 1, uint64(m.readable-1))
	}
	return m
}

func (m *mixer) pick() string {
	if m.zipf != nil {
		return nameOf(int(m.zipf.Uint64()))
	}
	return nameOf(m.rng.Intn(m.readable))
}

func (m *mixer) next(at time.Duration) op {
	u := m.rng.Float64()
	kind := opGet
	for k := opGet; k < nKinds; k++ {
		if u < m.w.mix[k] {
			kind = k
			break
		}
		u -= m.w.mix[k]
	}
	return m.nextOf(kind, at)
}

func (m *mixer) nextOf(kind opKind, at time.Duration) op {
	w := m.w
	switch kind {
	case opRange:
		return op{kind: opRange, name: m.pick(), off: m.rng.Intn(w.fileBytes - w.rangeBytes + 1), n: w.rangeBytes, at: at}
	case opPut:
		o := op{kind: opPut, name: fmt.Sprintf("%s-%06d", m.prefix, m.seq), n: w.fileBytes, at: at}
		m.seq++
		m.puts = append(m.puts, o)
		o.body = loadgen.Content(o.name, o.n)
		return o
	case opDelete:
		if len(m.puts) > 0 && m.puts[0].at+m.minAge <= at {
			o := m.puts[0]
			m.puts = m.puts[1:]
			return op{kind: opDelete, name: o.name, at: at}
		}
		if len(m.victims) > 0 {
			name := m.victims[0]
			m.victims = m.victims[1:]
			return op{kind: opDelete, name: name, at: at}
		}
		// Nothing is safe to delete yet: read instead of risking a 404.
	}
	return op{kind: opGet, name: m.pick(), n: w.fileBytes, at: at}
}

// deleteAge is how long after a PUT's intended send time the open-loop
// schedule may delete the name: twice the deadline, so the PUT has
// either been acknowledged or already counted as failed.
const deleteAge = 2 * deadline

// buildSchedule materialises the whole open-loop arrival schedule from
// the seed before any clock starts: Poisson arrivals at w.rate for dur.
func buildSchedule(w *workload, seed int64, streams int, dur time.Duration) []op {
	m := newMixer(w, seed, 0, streams, deleteAge)
	var sched []op
	at := time.Duration(0)
	for {
		at += time.Duration(m.rng.ExpFloat64() / w.rate * float64(time.Second))
		if at >= dur {
			return sched
		}
		sched = append(sched, m.next(at))
	}
}

func scheduleHash(sched []op) string {
	h := sha256.New()
	var num [8]byte
	for _, o := range sched {
		for _, v := range []int64{int64(o.kind), int64(o.off), int64(o.n), int64(o.at)} {
			binary.LittleEndian.PutUint64(num[:], uint64(v))
			h.Write(num[:])
		}
		io.WriteString(h, o.name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// target is the served program as the generator sees it: a base URL, a
// connection pool capped at the client count, and the contents every
// reply is checked against.
type target struct {
	base   string
	client *http.Client
	data   *dataset
	live   *liveSet
}

func newTarget(base string, conns int, data *dataset, live *liveSet) *target {
	return &target{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		data: data,
		live: live,
	}
}

func (t *target) close() { t.client.CloseIdleConnections() }

type opStatus int

const (
	opOK opStatus = iota
	// opFailed: transport error, unexpected status, or short body.
	opFailed
	// opWrongBytes: a success that returned the wrong bytes — the one
	// outcome that must never happen.
	opWrongBytes
)

// requestTimeout bounds one request so a hung server cannot hang the
// run; anything slower than the deadline is already a failure.
const requestTimeout = 10 * time.Second

// do sends one op and verifies the reply. buf is the caller's reusable
// body buffer.
func (t *target) do(o *op, buf *[]byte) opStatus {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	url := t.base + "/files/" + o.name
	var req *http.Request
	want := http.StatusOK
	switch o.kind {
	case opGet:
		req, _ = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	case opRange:
		req, _ = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", o.off, o.off+o.n-1))
		want = http.StatusPartialContent
	case opPut:
		req, _ = http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(o.body))
		want = http.StatusCreated
	case opDelete:
		req, _ = http.NewRequestWithContext(ctx, http.MethodDelete, url, nil)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return opFailed
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		io.Copy(io.Discard, resp.Body)
		return opFailed
	}
	if o.kind == opPut || o.kind == opDelete {
		io.Copy(io.Discard, resp.Body)
		t.live.apply(o)
		return opOK
	}
	// One spare byte so a reply longer than expected is caught too.
	if cap(*buf) < o.n+1 {
		*buf = make([]byte, o.n+1)
	}
	got, err := io.ReadFull(resp.Body, (*buf)[:o.n+1])
	if err != io.ErrUnexpectedEOF || got != o.n {
		return opFailed
	}
	var expect []byte
	if o.kind == opRange {
		// Ranged reads only ever target preloaded names.
		expect = t.data.pre[o.name][o.off : o.off+o.n]
	} else {
		expect = t.data.content(o.name, o.n)
	}
	if !bytes.Equal((*buf)[:o.n], expect) {
		return opWrongBytes
	}
	return opOK
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	name              string
	attempted, failed int
	wrongBytes        int
	elapsed           time.Duration
	// lat[k] holds each op's latency in ms: from the intended send time
	// in an open loop, from the actual send in a closed one.
	lat [nKinds][]float64
	// lateMs is how far behind its intended time each open-loop op was
	// sent, whatever held it up; oversleepMs only the part that is the
	// generator's own doing — how far a connection that was free and
	// waiting overslept the due time. backlogMax is the most ops that
	// were due but unsent.
	lateMs, oversleepMs []float64
	backlogMax          int
}

func (p *phaseResult) record(o *op, st opStatus, lat time.Duration, open bool) {
	p.attempted++
	switch {
	case st == opWrongBytes:
		p.wrongBytes++
		p.failed++
	case st == opFailed, open && lat > deadline:
		p.failed++
	}
	if st == opOK {
		p.lat[o.kind] = append(p.lat[o.kind], float64(lat)/float64(time.Millisecond))
	}
}

func (p *phaseResult) merge(o *phaseResult) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.wrongBytes += o.wrongBytes
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], o.lat[k]...)
	}
	p.lateMs = append(p.lateMs, o.lateMs...)
	p.oversleepMs = append(p.oversleepMs, o.oversleepMs...)
	if o.backlogMax > p.backlogMax {
		p.backlogMax = o.backlogMax
	}
}

func (p *phaseResult) ok() int { return p.attempted - p.failed }

// runOpen drives the schedule open loop over conns connections. A
// worker claims the next op, sleeps until it is due, sends it, and
// charges its latency from the intended send time — so when every
// connection is stuck behind a stall, each op that came due meanwhile
// is charged the wait (no coordinated omission).
func runOpen(t *target, sched []op, conns int) phaseResult {
	var next atomic.Int64
	parts := make([]phaseResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(p *phaseResult) {
			defer wg.Done()
			var buf []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				o := &sched[i]
				due := start.Add(o.at)
				waited := time.Until(due) > 0
				if waited {
					time.Sleep(time.Until(due))
				}
				sent := time.Now()
				late := float64(sent.Sub(due)) / float64(time.Millisecond)
				p.lateMs = append(p.lateMs, late)
				if waited {
					p.oversleepMs = append(p.oversleepMs, late)
				}
				// Ops due by now and not yet claimed by anyone.
				elapsed := sent.Sub(start)
				dueCount := sort.Search(len(sched), func(j int) bool { return sched[j].at > elapsed })
				if b := dueCount - int(next.Load()); b > p.backlogMax {
					p.backlogMax = b
				}
				st := t.do(o, &buf)
				p.record(o, st, time.Since(due), true)
			}
		}(&parts[c])
	}
	wg.Wait()
	res := phaseResult{name: "open", elapsed: time.Since(start)}
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}

// runClosed drives one closed-loop client per mixer for dur: each sends
// its next op only when the previous one has been answered.
func runClosed(t *target, mixers []*mixer, dur time.Duration) phaseResult {
	parts := make([]phaseResult, len(mixers))
	var wg sync.WaitGroup
	start := time.Now()
	for c, m := range mixers {
		wg.Add(1)
		go func(p *phaseResult, m *mixer) {
			defer wg.Done()
			var buf []byte
			for {
				elapsed := time.Since(start)
				if elapsed >= dur {
					return
				}
				o := m.next(elapsed)
				sent := time.Now()
				st := t.do(&o, &buf)
				p.record(&o, st, time.Since(sent), false)
			}
		}(&parts[c], m)
	}
	wg.Wait()
	res := phaseResult{name: "closed", elapsed: time.Since(start)}
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
