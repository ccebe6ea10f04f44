package chaos

// netchaos is the serving-stack variant of the chaos harness: the same
// seeded fault mix, but injected under N shard stores behind the
// internal/serve HTTP front door, with the workload driven by real
// HTTP clients over loopback. The contract is unchanged — an operation
// may FAIL while faults are live (5xx from an injected outage), but a
// 200/206 must carry exactly the bytes put; once injection stops, one
// recover plus one full scrub per shard leaves every stored byte
// readable byte-exact through the same HTTP API.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/hdfsraid"
	"repro/internal/serve"
)

// NetConfig parameterizes one network chaos run. Zero fields take
// defaults; Seed alone determines the workload and fault draw (up to
// goroutine and network interleaving).
type NetConfig struct {
	Seed int64
	// Shards is the shard-store count behind the front door.
	Shards int
	// Clients is the number of concurrent HTTP client goroutines.
	Clients int
	// Ops is the total operation budget shared by the clients.
	Ops int
	// SeedFiles is the number of files put fault-free before injection
	// starts.
	SeedFiles int
	// BlockSize and ExtentBlocks shape every shard store.
	BlockSize    int
	ExtentBlocks int
	// Fault overrides the per-shard injector probabilities; zero fields
	// take the same defaults as the single-store harness.
	Fault faultfs.Config
}

func (c NetConfig) withDefaults() NetConfig {
	if c.Shards == 0 {
		c.Shards = 3
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Ops == 0 {
		c.Ops = 400
	}
	if c.SeedFiles == 0 {
		c.SeedFiles = 8
	}
	if c.BlockSize == 0 {
		c.BlockSize = 1024
	}
	if c.ExtentBlocks == 0 {
		c.ExtentBlocks = 6
	}
	// Reuse the single-store fault defaults so the two harnesses stay
	// comparable run for run.
	single := Config{Seed: c.Seed, Fault: c.Fault}.withDefaults()
	c.Fault = single.Fault
	return c
}

// NetResult reports one network chaos run. Errors under injection are
// expected; only Violations (plus a non-nil error from RunNet) mean
// the serving stack broke its contract.
type NetResult struct {
	Puts, PutErrs       int64
	Gets, GetErrs       int64
	Ranges, RangeErrs   int64
	Deletes, DeleteErrs int64
	Outages             int64
	Files               int // files tracked at the end (stored minus deleted)
	Faults              faultfs.Stats
	FinalScrub          hdfsraid.ScrubReport
	Violations          []string
}

// RunNet executes one network chaos run against fresh shard stores
// under dir and verifies the end-state invariant through the HTTP API.
func RunNet(dir string, cfg NetConfig) (NetResult, error) {
	cfg = cfg.withDefaults()
	var res NetResult

	if err := serve.CreateShards(dir, "rs-9-6", cfg.BlockSize, cfg.ExtentBlocks, cfg.Shards); err != nil {
		return res, err
	}
	// Read cache on: every verified GET also proves a hit never
	// outlives a delete or serves a flipped bit.
	srv, err := serve.Open(dir, serve.Config{ReadCacheBytes: 1 << 20})
	if err != nil {
		return res, err
	}
	defer srv.Close()

	// One injector per shard, seeded distinctly so the shards draw
	// independent fault sequences.
	injectors := make([]*faultfs.FS, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		fcfg := cfg.Fault
		fcfg.Seed = cfg.Seed + int64(100*(i+1))
		injectors[i] = faultfs.New(fcfg)
		injectors[i].SetEnabled(false) // seeding below runs fault-free
		srv.Shard(i).SetBlockIO(injectors[i])
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	// ref holds the authoritative bytes of every file believed stored;
	// a name leaves ref the moment a DELETE is attempted (success or
	// not), because a failed delete's end state is legitimately unknown.
	var refMu sync.Mutex
	ref := map[string][]byte{}
	var names []string
	dropName := func(name string) {
		refMu.Lock()
		delete(ref, name)
		for i, n := range names {
			if n == name {
				names[i] = names[len(names)-1]
				names = names[:len(names)-1]
				break
			}
		}
		refMu.Unlock()
	}

	httpPut := func(name string, data []byte) error {
		req, err := http.NewRequest(http.MethodPut, base+"/files/"+name, bytes.NewReader(data))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("put %s: status %d", name, resp.StatusCode)
		}
		return nil
	}

	seedRng := rand.New(rand.NewSource(cfg.Seed))
	extBytes := cfg.ExtentBlocks * cfg.BlockSize
	for i := 0; i < cfg.SeedFiles; i++ {
		name := fmt.Sprintf("seed-%02d", i)
		data := make([]byte, 1+seedRng.Intn(2*extBytes))
		seedRng.Read(data)
		if err := httpPut(name, data); err != nil {
			return res, fmt.Errorf("netchaos: seeding %s: %w", name, err)
		}
		ref[name] = data
		names = append(names, name)
	}

	var putSeq atomic.Int64
	var violMu sync.Mutex
	violation := func(format string, args ...any) {
		violMu.Lock()
		if len(res.Violations) < 16 {
			res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		}
		violMu.Unlock()
	}
	pick := func(r *rand.Rand) string {
		refMu.Lock()
		defer refMu.Unlock()
		if len(names) == 0 {
			return ""
		}
		return names[r.Intn(len(names))]
	}
	// lookup reads the reference. A read verifies its response only
	// against bytes the name held both BEFORE the request went out and
	// AFTER the response arrived: a name leaves ref before its DELETE is
	// sent and returns once a re-put succeeded, so a response in between
	// must carry exactly those; any other response proves nothing.
	lookup := func(name string) ([]byte, bool) {
		refMu.Lock()
		defer refMu.Unlock()
		want, ok := ref[name]
		return want, ok
	}
	same := func(a, b []byte) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }
	nodes := srv.Shard(0).Code().Nodes()

	for _, fs := range injectors {
		fs.SetEnabled(true)
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		r := rand.New(rand.NewSource(cfg.Seed + 1 + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < cfg.Ops/cfg.Clients; op++ {
				switch roll := r.Intn(100); {
				case roll < 45: // whole-file read, verified
					name := pick(r)
					if name == "" {
						break
					}
					before, _ := lookup(name)
					atomic.AddInt64(&res.Gets, 1)
					resp, err := client.Get(base + "/files/" + name)
					if err != nil {
						atomic.AddInt64(&res.GetErrs, 1)
						break
					}
					got, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || rerr != nil {
						atomic.AddInt64(&res.GetErrs, 1)
						break
					}
					if want, _ := lookup(name); same(before, want) && !bytes.Equal(got, want) {
						violation("GET %s returned %d bytes that differ from the %d put", name, len(got), len(want))
					}
				case roll < 60: // ranged read, verified
					name := pick(r)
					if name == "" {
						break
					}
					want, ok := lookup(name)
					if !ok || len(want) == 0 {
						break
					}
					off := r.Intn(len(want))
					n := 1 + r.Intn(len(want)-off)
					atomic.AddInt64(&res.Ranges, 1)
					req, _ := http.NewRequest(http.MethodGet, base+"/files/"+name, nil)
					req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
					resp, err := client.Do(req)
					if err != nil {
						atomic.AddInt64(&res.RangeErrs, 1)
						break
					}
					got, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusPartialContent || rerr != nil {
						atomic.AddInt64(&res.RangeErrs, 1)
						break
					}
					if after, _ := lookup(name); same(want, after) && !bytes.Equal(got, want[off:off+n]) {
						violation("ranged GET %s [%d,%d) returned bytes that differ from the put", name, off, off+n)
					}
				case roll < 75: // put a new file
					name := fmt.Sprintf("w-%04d", putSeq.Add(1))
					data := make([]byte, 1+r.Intn(2*extBytes))
					r.Read(data)
					atomic.AddInt64(&res.Puts, 1)
					if err := httpPut(name, data); err != nil {
						atomic.AddInt64(&res.PutErrs, 1)
						break
					}
					refMu.Lock()
					ref[name] = data
					names = append(names, name)
					refMu.Unlock()
				case roll < 85: // delete an existing file
					name := pick(r)
					if name == "" {
						break
					}
					// Stop tracking before the request: whether the delete
					// lands or dies mid-flight, the name's state is no
					// longer ours to assert.
					dropName(name)
					atomic.AddInt64(&res.Deletes, 1)
					req, _ := http.NewRequest(http.MethodDelete, base+"/files/"+name, nil)
					resp, err := client.Do(req)
					if err != nil {
						atomic.AddInt64(&res.DeleteErrs, 1)
						break
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						atomic.AddInt64(&res.DeleteErrs, 1)
						break
					}
					// Half the deleted names come straight back with other
					// bytes: no cached extent of the old entry may answer.
					if r.Intn(2) == 0 {
						data := make([]byte, 1+r.Intn(2*extBytes))
						r.Read(data)
						atomic.AddInt64(&res.Puts, 1)
						if err := httpPut(name, data); err != nil {
							atomic.AddInt64(&res.PutErrs, 1)
							break
						}
						refMu.Lock()
						ref[name] = data
						names = append(names, name)
						refMu.Unlock()
					}
				default: // brief single-node outage on one shard
					atomic.AddInt64(&res.Outages, 1)
					fs := injectors[r.Intn(len(injectors))]
					node := r.Intn(nodes)
					fs.SetNodeDown(node, true)
					time.Sleep(200 * time.Microsecond)
					fs.SetNodeDown(node, false)
				}
			}
		}()
	}
	wg.Wait()

	// Faults off: the shards must repair themselves completely and the
	// HTTP surface must return every tracked byte exactly.
	for _, fs := range injectors {
		fs.SetEnabled(false)
		s := fs.Stats()
		res.Faults.ReadErrs += s.ReadErrs
		res.Faults.BitFlips += s.BitFlips
		res.Faults.TornWrites += s.TornWrites
		res.Faults.Delays += s.Delays
		res.Faults.DownDenials += s.DownDenials
		res.Faults.CleanReads += s.CleanReads
		res.Faults.CleanWrites += s.CleanWrites
		res.Faults.CleanRenames += s.CleanRenames
		res.Faults.CleanRemoves += s.CleanRemoves
	}
	refMu.Lock()
	res.Files = len(ref)
	refMu.Unlock()
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("netchaos: %d mid-run violations, first: %s", len(res.Violations), res.Violations[0])
	}
	if res.Faults.Total() == 0 {
		return res, fmt.Errorf("netchaos: vacuous run — no faults were injected")
	}

	for i := 0; i < srv.NumShards(); i++ {
		if _, err := srv.Shard(i).Recover(); err != nil {
			return res, fmt.Errorf("netchaos: recover shard %d: %w", i, err)
		}
	}
	if res.FinalScrub, err = srv.Scrub(0); err != nil {
		return res, fmt.Errorf("netchaos: final scrub: %w", err)
	}
	if res.FinalScrub.Unrepairable > 0 {
		return res, fmt.Errorf("netchaos: %d blocks unrepairable after faults stopped: %+v",
			res.FinalScrub.Unrepairable, res.FinalScrub)
	}
	again, err := srv.Scrub(0)
	if err != nil {
		return res, fmt.Errorf("netchaos: convergence scrub: %w", err)
	}
	if again.CorruptFound+again.MissingFound > 0 {
		return res, fmt.Errorf("netchaos: scrub did not converge: %+v", again)
	}
	fsck, err := srv.Fsck()
	if err != nil {
		return res, fmt.Errorf("netchaos: fsck: %w", err)
	}
	if !fsck.Healthy() {
		return res, fmt.Errorf("netchaos: shards unhealthy after repair: %+v", fsck)
	}
	refMu.Lock()
	final := append([]string(nil), names...)
	refMu.Unlock()
	sort.Strings(final)
	for _, name := range final {
		resp, err := client.Get(base + "/files/" + name)
		if err != nil {
			return res, fmt.Errorf("netchaos: final read of %s: %w", name, err)
		}
		got, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || rerr != nil {
			return res, fmt.Errorf("netchaos: final read of %s: status %d, %v", name, resp.StatusCode, rerr)
		}
		if !bytes.Equal(got, ref[name]) {
			return res, fmt.Errorf("netchaos: final read of %s differs from the bytes put", name)
		}
	}
	return res, nil
}
