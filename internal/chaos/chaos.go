// Package chaos is the one harness behind the robustness invariant the
// whole fault-handling stack promises: an operation may FAIL while
// faults are live, but it never LIES, and once injection stops every
// byte is readable exactly as written.
//
// Run builds the full serving stack — rs-9-6 shard stores behind the
// internal/serve front door, the shared read cache on, the served tier
// daemons moving extents and trickle-scrubbing — with a faultfs
// injector under every shard, and drives it with one seeded stream of
// concurrent ops: verified HTTP GETs and ranged GETs, PUTs, deletes
// that re-put the name with other bytes, in-process Gets, manual extent
// moves, shard recoveries and brief node outages. Every response is
// judged by one reference model (Client.judge); Settle then checks the
// end state. The reshard gates (internal/reshard) drive the same Client
// against a server with the resharder attached and end on the same
// Settle.
//
// The op stream is deterministic per seed up to goroutine and network
// interleaving, so a fault mix is reproducible in distribution; the
// invariant must hold for every interleaving, which is what running
// the harness under the race detector in CI is for.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/faultfs"
	"repro/internal/serve"

	_ "repro/internal/code/replication" // the daemons tier between 3-rep ...
	_ "repro/internal/code/rs"          // ... and rs-9-6
)

// The two op mixes, one letter per twentieth or tenth of the draws:
//
//	g  verified HTTP GET of a shared name
//	r  verified ranged GET of a shared name
//	p  PUT of a new shared name
//	d  DELETE of a shared name, then its re-put with other bytes
//	i  verified in-process Server.Get
//	t  manual move of one extent between rs-9-6 and 3-rep
//	c  Recover on one shard, concurrent with everything else
//	o  a brief outage of one node of one shard
//	w  write pair: PUT of a private name, verified GET, DELETE
//
// Run draws chaosMix. Load draws reshardMix, which has no faulty ops
// and never deletes a name another client reads.
const (
	chaosMix   = "gggggggrrrppddiitcoo"
	reshardMix = "gggggggrrw"
)

const (
	shards       = 3
	workers      = 4
	blockSize    = 1024
	extentBlocks = 6
	// maxFile bounds every file put: up to two extents of Run's shards.
	maxFile = 2 * extentBlocks * blockSize
	// runFiles and loadFiles are the shared files a client puts
	// fault-free before Run's ops and before Load.
	runFiles, loadFiles = 8, 32
	// retry503Budget is how many times a 503 + Retry-After is retried,
	// the wait doubling from 2 ms, before it counts as an error.
	retry503Budget = 6
)

// faults are every shard injector's probabilities: plenty of every
// fault kind, while the odds of a genuinely unrepairable stripe (more
// latent errors than rs-9-6 tolerates) stay negligible.
var faults = faultfs.Config{
	ReadErr: 0.05, CorruptWrite: 0.01, TornWrite: 0.02,
	LatencyProb: 0.02, Latency: 500 * time.Microsecond,
}

// Config parameterizes one Run.
type Config struct {
	// Seed draws the op stream, the file contents and every shard's
	// faults.
	Seed int64
	// Ops is the op budget the workers share; 0 means 400.
	Ops int
}

// Result reports what a run of ops did. Failures under injection are
// expected; only Violations mean the stack lied.
type Result struct {
	// Ops counts the ops of each kind issued, keyed by mix letter.
	Ops map[string]int64
	// Errs counts failed ops: transport errors, unexpected statuses and
	// 503s that outlasted their retries.
	Errs int64
	// Retried503 counts 503 + Retry-After answers (a name mid-move in a
	// reshard) that were retried: neither an error nor a violation.
	Retried503 int64
	// Violations are responses that carried wrong bytes.
	Violations []string
	// Faults sums every shard injector's counts (Run only).
	Faults faultfs.Stats
}

// Client is the one verified client: it issues ops over HTTP (and, in
// Run, in process) and judges every response against its reference
// model of the names it tracks.
type Client struct {
	base string
	hc   *http.Client
	seed int64
	// srv and fss are set by Run only: the in-process ops need them.
	srv *serve.Server
	fss []*faultfs.FS

	mu sync.Mutex
	// ref holds the bytes of every tracked name. A name leaves ref
	// before its DELETE is sent and returns once a re-put succeeded.
	ref map[string][]byte
	// shared lists the tracked names any worker may pick.
	shared []string
	seq    int
	res    Result
}

// NewClient returns a client of the front door at base, after putting
// the shared files it starts tracking. Turn faults on only after it
// returns: the preload must not fail.
func NewClient(base string, seed int64) (*Client, error) { return newClient(base, seed, loadFiles) }

func newClient(base string, seed int64, files int) (*Client, error) {
	c := &Client{base: base, seed: seed,
		hc:  &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: workers}},
		ref: map[string][]byte{}, res: Result{Ops: map[string]int64{}}}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < files; i++ {
		name, data := fmt.Sprintf("seed-%02d", i), content(r)
		if status, _ := c.do(http.MethodPut, name, data, ""); status != http.StatusCreated {
			return nil, fmt.Errorf("chaos: preloading %s: status %d", name, status)
		}
		c.track(name, data, true)
	}
	return c, nil
}

// Run executes one chaos run in fresh shard stores under dir. The
// error is nil only when nothing lied, the run was not vacuous (every
// op kind ran, every fault kind fired, the daemons ticked, the read
// cache hit) and Settle passes. The Result comes back even alongside
// an error, for diagnosis.
func Run(dir string, cfg Config) (Result, error) {
	if cfg.Ops == 0 {
		cfg.Ops = 400
	}
	if err := serve.CreateShards(dir, "rs-9-6", blockSize, extentBlocks, shards); err != nil {
		return Result{}, err
	}
	srv, err := serve.Open(dir, serve.Config{
		ReadCacheBytes: 1 << 20,
		// The daemons scan every 20 ms: a 240-op run can finish in 70 ms,
		// and every run must interleave scans with its ops.
		Tier: &serve.TierConfig{
			HotCode: "3-rep", ColdCode: "rs-9-6", PromoteAt: 5, DemoteAt: 2,
			Interval: 0.02, HalfLife: 0.25, ScrubPerScan: float64(4 * block.FrameSize(blockSize)),
		},
	})
	if err != nil {
		return Result{}, err
	}
	defer srv.Close()
	fss := make([]*faultfs.FS, shards)
	for i := range fss {
		f := faults
		f.Seed = cfg.Seed + int64(100*(i+1)) // independent draws per shard
		fss[i] = faultfs.New(f)
		fss[i].SetEnabled(false)
		srv.Shard(i).SetBlockIO(fss[i])
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := newClient(ts.URL, cfg.Seed, runFiles)
	if err != nil {
		return Result{}, err
	}
	c.srv, c.fss = srv, fss

	for _, f := range fss {
		f.SetEnabled(true)
	}
	res, err := c.run(chaosMix, cfg.Ops, nil)
	for _, f := range fss {
		f.SetEnabled(false)
		s := f.Stats()
		res.Faults.ReadErrs += s.ReadErrs
		res.Faults.BitFlips += s.BitFlips
		res.Faults.TornWrites += s.TornWrites
		res.Faults.Delays += s.Delays
		res.Faults.DownDenials += s.DownDenials
	}
	if err != nil {
		return res, err
	}
	if f := res.Faults; f.ReadErrs == 0 || f.BitFlips == 0 || f.TornWrites == 0 || f.Delays == 0 || f.DownDenials == 0 {
		return res, fmt.Errorf("chaos: vacuous run: a fault kind never fired: %+v", f)
	}
	stats := srv.Stats().Counters
	for _, m := range []string{"daemon_ticks_total", "store_cache_hits_total"} {
		if stats[m] == 0 {
			return res, fmt.Errorf("chaos: vacuous run: %s stayed 0", m)
		}
	}
	return res, Settle(srv, c)
}

// Load draws reshardMix on the client's workers until stop closes. The
// error reports a violation or an op kind of the mix that never ran.
func (c *Client) Load(stop <-chan struct{}) (Result, error) {
	return c.run(reshardMix, 0, stop)
}

// run draws mix on the workers: ops in total, or until stop closes
// when ops is 0.
func (c *Client) run(mix string, ops int, stop <-chan struct{}) (Result, error) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r := rand.New(rand.NewSource(c.seed + 1 + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ops == 0 || i < ops/workers; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.op(mix[r.Intn(len(mix))], r)
			}
		}()
	}
	wg.Wait()
	return c.result(mix)
}

// result snapshots what the client's ops did so far: an error reports a
// violation or an op kind of mix that never ran.
func (c *Client) result(mix string) (Result, error) {
	c.mu.Lock()
	res := c.res
	res.Ops = maps.Clone(c.res.Ops)
	res.Violations = slices.Clone(c.res.Violations)
	c.mu.Unlock()
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("chaos: %d responses lied, first: %s", len(res.Violations), res.Violations[0])
	}
	for _, k := range mix {
		if res.Ops[string(k)] == 0 {
			return res, fmt.Errorf("chaos: vacuous run: op %q never ran: %v", k, res.Ops)
		}
	}
	return res, nil
}

// op issues one op of kind k.
func (c *Client) op(k byte, r *rand.Rand) {
	var name string
	switch k {
	case 'p', 'w':
		c.mu.Lock()
		c.seq++
		name = fmt.Sprintf("%c-%04d", k, c.seq)
		c.mu.Unlock()
	case 'g', 'r', 'd', 'i', 't':
		if name = c.pick(r); name == "" {
			return
		}
	}
	c.count(k)
	switch k {
	case 'g', 'r':
		c.read(name, k == 'r', r)
	case 'p':
		c.put(name, content(r), true)
	case 'd':
		if c.remove(name) {
			c.put(name, content(r), true)
		}
	case 'i':
		before := c.lookup(name)
		got, err := c.srv.Get(name)
		if err != nil {
			c.fail()
			return
		}
		c.judge("Get", name, before, 0, len(before), got)
	case 't':
		st := c.srv.Shard(c.srv.ShardOf(name))
		exts, ok := st.Extents(name)
		to := "3-rep"
		if r.Intn(2) == 0 {
			to = "rs-9-6"
		}
		if !ok {
			c.fail()
		} else if _, err := st.TranscodeExtent(name, r.Intn(len(exts)), to); err != nil {
			c.fail()
		}
	case 'c':
		if _, err := c.srv.Shard(r.Intn(c.srv.NumShards())).Recover(); err != nil {
			c.fail()
		}
	case 'o':
		f := c.fss[r.Intn(len(c.fss))]
		node := r.Intn(c.srv.Shard(0).Code().Nodes())
		f.SetNodeDown(node, true)
		time.Sleep(2 * time.Millisecond)
		f.SetNodeDown(node, false)
	case 'w':
		if c.put(name, content(r), false) {
			c.read(name, false, r)
			c.remove(name)
		}
	}
}

// read GETs name, whole or a random byte range of it, and judges the
// answer.
func (c *Client) read(name string, ranged bool, r *rand.Rand) {
	before := c.lookup(name)
	off, n, hdr, want := 0, len(before), "", http.StatusOK
	if ranged && n > 0 {
		off = r.Intn(n)
		n = 1 + r.Intn(n-off)
		hdr, want = fmt.Sprintf("bytes=%d-%d", off, off+n-1), http.StatusPartialContent
	}
	status, got := c.do(http.MethodGet, name, nil, hdr)
	if status != want {
		c.fail()
		return
	}
	c.judge("GET", name, before, off, n, got)
}

// judge is the reference model's one rule. A response proves something
// only about bytes the name held both BEFORE the request went out and
// AFTER the answer arrived — the same slice, since a name leaves ref
// before its DELETE and comes back with new bytes only after a re-put —
// and then it must carry exactly bytes [off, off+n) of them.
func (c *Client) judge(what, name string, before []byte, off, n int, got []byte) {
	after := c.lookup(name)
	if len(before) == 0 || len(after) != len(before) || &after[0] != &before[0] ||
		bytes.Equal(got, before[off:off+n]) {
		return
	}
	c.mu.Lock()
	if len(c.res.Violations) < 16 {
		c.res.Violations = append(c.res.Violations,
			fmt.Sprintf("%s %s: %d bytes differ from bytes [%d,%d) of the put", what, name, len(got), off, off+n))
	}
	c.mu.Unlock()
}

// put PUTs data under name and tracks it on success.
func (c *Client) put(name string, data []byte, shared bool) bool {
	if status, _ := c.do(http.MethodPut, name, data, ""); status != http.StatusCreated {
		c.fail()
		return false
	}
	c.track(name, data, shared)
	return true
}

// remove stops tracking name, then DELETEs it: whether the delete lands
// or dies mid-flight, the name's state is no longer the model's.
func (c *Client) remove(name string) bool {
	c.mu.Lock()
	delete(c.ref, name)
	if i := slices.Index(c.shared, name); i >= 0 {
		c.shared = slices.Delete(c.shared, i, i+1)
	}
	c.mu.Unlock()
	if status, _ := c.do(http.MethodDelete, name, nil, ""); status != http.StatusOK {
		c.fail()
		return false
	}
	return true
}

// do sends one request and returns its status (0 on a transport error)
// and body. A 503 with Retry-After — a name mid-move in a reshard — is
// retried with doubling backoff; one that outlasts retry503Budget comes
// back as it is.
func (c *Client) do(method, name string, body []byte, rangeHdr string) (int, []byte) {
	for try := 0; ; try++ {
		req, err := http.NewRequest(method, c.base+"/files/"+name, bytes.NewReader(body))
		if err != nil {
			return 0, nil
		}
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return 0, nil
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil
		}
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
			try == retry503Budget {
			return resp.StatusCode, data
		}
		c.mu.Lock()
		c.res.Retried503++
		c.mu.Unlock()
		time.Sleep(2 * time.Millisecond << try)
	}
}

func (c *Client) track(name string, data []byte, shared bool) {
	c.mu.Lock()
	c.ref[name] = data
	if shared {
		c.shared = append(c.shared, name)
	}
	c.mu.Unlock()
}

func (c *Client) lookup(name string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ref[name]
}

// pick returns a random shared name, or "" when there is none.
func (c *Client) pick(r *rand.Rand) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.shared) == 0 {
		return ""
	}
	return c.shared[r.Intn(len(c.shared))]
}

func (c *Client) count(k byte) {
	c.mu.Lock()
	c.res.Ops[string(k)]++
	c.mu.Unlock()
}

func (c *Client) fail() {
	c.mu.Lock()
	c.res.Errs++
	c.mu.Unlock()
}

// content draws the bytes of one file put: 1 to maxFile random bytes.
func content(r *rand.Rand) []byte {
	data := make([]byte, 1+r.Intn(maxFile))
	r.Read(data)
	return data
}

// Settle is the end state every run must reach once faults stop:
// Recover on every shard, then a scrub with nothing unrepairable, then
// a second scrub that finds nothing (the first converged), then a
// healthy fsck, then every name c tracks byte-exact over HTTP.
func Settle(srv *serve.Server, c *Client) error {
	for i := 0; i < srv.NumShards(); i++ {
		if _, err := srv.Shard(i).Recover(); err != nil {
			return fmt.Errorf("chaos: recover shard %d: %w", i, err)
		}
	}
	rep, err := srv.Scrub(0)
	if err != nil {
		return fmt.Errorf("chaos: scrub: %w", err)
	}
	if rep.Unrepairable > 0 {
		return fmt.Errorf("chaos: %d blocks unrepairable after faults stopped: %+v", rep.Unrepairable, rep)
	}
	if rep, err = srv.Scrub(0); err != nil {
		return fmt.Errorf("chaos: convergence scrub: %w", err)
	}
	if rep.CorruptFound+rep.MissingFound > 0 {
		return fmt.Errorf("chaos: scrub did not converge: %+v", rep)
	}
	fsck, err := srv.Fsck()
	if err != nil {
		return fmt.Errorf("chaos: fsck: %w", err)
	}
	if !fsck.Healthy() {
		return fmt.Errorf("chaos: unhealthy after repair: %+v", fsck)
	}
	c.mu.Lock()
	ref := maps.Clone(c.ref)
	c.mu.Unlock()
	if len(ref) == 0 {
		return fmt.Errorf("chaos: vacuous run: no name tracked to the end")
	}
	for _, name := range slices.Sorted(maps.Keys(ref)) {
		if status, got := c.do(http.MethodGet, name, nil, ""); status != http.StatusOK || !bytes.Equal(got, ref[name]) {
			return fmt.Errorf("chaos: final read of %s: status %d, %d bytes, want the %d put", name, status, len(got), len(ref[name]))
		}
	}
	return nil
}
