// Command hdfscli drives the on-disk miniature HDFS-RAID store: create
// a store for any registered code (optionally with extent-granular
// tiering), put/get files (put streams; get appends per-extent heat
// records to the store's tier-heat.log), kill nodes, repair them
// with the code's partial-parity plans (hottest files first, fed by
// the persisted heat), fsck the block inventory, and tier extents
// between hot and cold codes by decayed access heat.
//
// Usage:
//
//	hdfscli -store DIR create -code pentagon [-blocksize N] [-extentblocks E]
//	hdfscli -store DIR put FILE
//	hdfscli -store DIR get NAME OUT
//	hdfscli -store DIR ls
//	hdfscli -store DIR kill NODE...
//	hdfscli -store DIR repair NODE...
//	hdfscli -store DIR fsck
//	hdfscli -store DIR scrub [-budget MB]
//	hdfscli -store DIR stats [-json]
//	hdfscli -store DIR tier status
//	hdfscli -store DIR tier set [-ext N] NAME CODE
//	hdfscli -store DIR tier rebalance [-hot CODE] [-cold CODE] [-promote H] [-demote H] [-dwell S]
//	hdfscli -store DIR tier daemon [-every S] [-budget MBPS] [-scrub MB] [-duration S] [-metrics ADDR] [rebalance flags]
//	hdfscli -store DIR serve [-addr HOST:PORT] [-create -shards N -code NAME -blocksize B -extentblocks E] [-resume-reshard] [-cache-mb MB] [-tierevery S ...]
//	hdfscli -store DIR reshard {-to N | -resume | -status}
//
// serve runs the sharded front door: DIR holds N independent shard
// stores (DIR/shard-00 ...), file names route to shards by consistent
// hashing, and the files are served over a streaming HTTP API (PUT and
// ranged GET /files/{name}, /stats, /admin/scrub, /admin/repair,
// /admin/reshard). SIGINT/SIGTERM drains in-flight requests before
// exiting.
//
// reshard changes a serving directory's shard count offline: -to N
// writes a pending record and runs a grow to N shards; a killed run
// resumes with -resume, which re-derives the names left from the
// shards' own listings; -status reports how many are left without
// moving anything. The same mover runs live under serve through
// POST /admin/reshard. A directory with a pending record refuses a
// plain serve with a one-line diagnosis; serve
// -resume-reshard serves it (dual-ring routing keeps every name
// readable) and finishes the moves in the background.
//
// scrub verifies block checksums (resuming across invocations, at most
// -budget MB per run; 0 means one full pass) and heals whatever latent
// corruption it finds through quarantine + reconstruct + write-back;
// it exits nonzero when any block is unrepairable. The daemon's -scrub
// flag trickles the same verification along in the background, granting
// it up to that many MB of the shared move budget per scan so scrubbing
// never starves rebalance moves.
//
// Every command Opens the store, which sweeps the stale block files of
// any extent move a crashed process left mid-flight; fsck reports when
// that recovery acted.
//
// Every invocation folds the metrics it generated into the store's
// persisted snapshot (obs-metrics.json beside the manifest), so
// `hdfscli stats` reports the accumulated telemetry of every put, get,
// repair and move that ever ran against the store; `tier daemon
// -metrics ADDR` additionally serves the live registry over HTTP.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	_ "repro/internal/code/heptlocal"
	_ "repro/internal/code/polygon"
	_ "repro/internal/code/raidm"
	_ "repro/internal/code/replication"
	_ "repro/internal/code/rs"
	"repro/internal/core"
	"repro/internal/hdfsraid"
	"repro/internal/obs"
	"repro/internal/reshard"
	"repro/internal/serve"
	"repro/internal/tier"
	"repro/internal/tier/accesslog"
)

func main() {
	store := flag.String("store", "", "store directory (required)")
	flag.Parse()
	args := flag.Args()
	if *store == "" || len(args) == 0 {
		usage()
	}
	var err error
	switch args[0] {
	case "create":
		err = doCreate(*store, args[1:])
	case "put":
		err = doPut(*store, args[1:])
	case "get":
		err = doGet(*store, args[1:])
	case "ls":
		err = doLs(*store)
	case "kill":
		err = doNodes(*store, args[1:], "kill")
	case "repair":
		err = doNodes(*store, args[1:], "repair")
	case "fsck":
		err = doFsck(*store)
	case "scrub":
		err = doScrub(*store, args[1:])
	case "stats":
		err = doStats(*store, args[1:])
	case "tier":
		err = doTier(*store, args[1:])
	case "serve":
		err = doServe(*store, args[1:])
	case "reshard":
		err = doReshard(*store, args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdfscli:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hdfscli -store DIR {create -code NAME [-blocksize N] | put FILE | get NAME OUT | ls | kill NODE... | repair NODE... | fsck | scrub [-budget MB] | stats [-json] | tier {status | set NAME CODE | rebalance [flags] | daemon [flags]} | serve [flags] | reshard {-to N | -resume | -status}}")
	fmt.Fprintln(os.Stderr, "codes:", core.Names())
	os.Exit(2)
}

// openHeat opens the store's heat state: the tier-heat.json snapshot
// plus the tier-heat.log of access records since, beside the manifest.
// Reads join an O(1) batch (one fsync per batch); concurrent CLIs,
// daemons and servers on one store each open their own HeatLog and
// tail each other's appends.
func openHeat(store string, s *hdfsraid.Store) (*tier.HeatLog, error) {
	hl, err := tier.OpenHeatLog(store, defaultHalfLife, accesslog.Options{})
	if err != nil {
		return nil, err
	}
	if s != nil {
		hl.Obs = s.Obs()
	}
	return hl, nil
}

// obsPath is where metric snapshots accumulate across one-shot
// invocations, beside the manifest.
func obsPath(store string) string { return filepath.Join(store, "obs-metrics.json") }

// openStore opens the store, replacing the raw manifest-read error
// with a one-line diagnosis when no store exists at the directory.
func openStore(store string) (*hdfsraid.Store, error) {
	s, err := hdfsraid.Open(store)
	if err != nil {
		if _, statErr := os.Stat(filepath.Join(store, "manifest.json")); os.IsNotExist(statErr) {
			return nil, fmt.Errorf("no store at %s (run 'hdfscli -store %s create' first)", store, store)
		}
		return nil, err
	}
	return s, nil
}

// flushObs folds the metrics this process generated into the store's
// persisted snapshot, so one-shot invocations accumulate telemetry the
// stats command can report later. Counters and histograms add; the
// journal trace keeps its newest window.
func flushObs(store string, s *hdfsraid.Store) error {
	disk, err := obs.ReadSnapshotFile(obsPath(store))
	if err != nil {
		return err
	}
	disk.Merge(s.Obs().Snapshot())
	return obs.WriteSnapshotFile(obsPath(store), disk)
}

// nowSeconds is the wall clock as float seconds, the tracker's time
// base for CLI use.
func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// defaultHalfLife is a day: CLI-driven stores heat up over human time
// scales.
const defaultHalfLife = 24 * 3600

func doCreate(store string, args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	code := fs.String("code", "pentagon", "coding scheme")
	blockSize := fs.Int("blocksize", 1<<20, "block size in bytes")
	extentBlocks := fs.Int("extentblocks", 0, "extent size in data blocks (0 = whole-file extents); extents tier independently")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := hdfsraid.CreateExt(store, *code, *blockSize, *extentBlocks)
	if err != nil {
		return err
	}
	c := s.Code()
	fmt.Printf("created %s store at %s: %d nodes, %d-byte blocks, overhead %.2fx, tolerates %d failures",
		c.Name(), store, c.Nodes(), *blockSize, core.StorageOverhead(c), c.FaultTolerance())
	if *extentBlocks > 0 {
		fmt.Printf(", %d-block extents", *extentBlocks)
	}
	fmt.Println()
	return nil
}

func doPut(store string, args []string) error {
	if len(args) != 1 {
		usage()
	}
	s, err := openStore(store)
	if err != nil {
		return err
	}
	// Stream the source file straight into the encode pipeline: no
	// caller-materialized buffer, so a put's memory stays O(stripes
	// in flight) regardless of the file's size.
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	name := filepath.Base(args[0])
	if err := s.PutReader(name, f); err != nil {
		return err
	}
	fi, _ := s.Info(name)
	exts, _ := s.Extents(name)
	fmt.Printf("stored %s: %d bytes in %d stripes across %d extents\n", name, fi.Length, fi.Stripes, len(exts))
	return flushObs(store, s)
}

func doGet(store string, args []string) error {
	if len(args) != 2 {
		usage()
	}
	s, err := openStore(store)
	if err != nil {
		return err
	}
	hl, err := openHeat(store, s)
	if err != nil {
		return err
	}
	// Heat accrues per extent: a whole-file get touches every extent,
	// so the rebalance daemon sees which regions are actually hot. Each
	// touch joins an O(1) batch; Close flushes it to the shared heat log
	// in one append.
	s.OnReadExtent = func(name string, ext int) { hl.TouchExtent(name, ext, nowSeconds()) }
	data, err := s.Get(args[0])
	if err != nil {
		hl.Close()
		return err
	}
	if err := os.WriteFile(args[1], data, 0o644); err != nil {
		hl.Close()
		return err
	}
	if err := hl.Close(); err != nil {
		return err
	}
	fmt.Printf("read %s: %d bytes -> %s\n", args[0], len(data), args[1])
	return flushObs(store, s)
}

func doLs(store string) error {
	s, err := openStore(store)
	if err != nil {
		return err
	}
	for _, name := range s.Files() {
		fi, _ := s.Info(name)
		fmt.Printf("%-30s %10d bytes %4d stripes\n", name, fi.Length, fi.Stripes)
	}
	return nil
}

func doNodes(store string, args []string, op string) error {
	if len(args) == 0 {
		usage()
	}
	s, err := openStore(store)
	if err != nil {
		return err
	}
	nodes := make([]int, len(args))
	for i, a := range args {
		n, err := strconv.Atoi(a)
		if err != nil {
			return fmt.Errorf("bad node %q", a)
		}
		nodes[i] = n
	}
	if op == "kill" {
		for _, n := range nodes {
			if err := s.KillNode(n); err != nil {
				return err
			}
		}
		fmt.Printf("killed nodes %v\n", nodes)
		return nil
	}
	// Repair hot files first: the persisted heat (snapshot + access
	// log) gives the store the same ordering signal the rebalance
	// daemon uses.
	hl, err := openHeat(store, s)
	if err != nil {
		return err
	}
	defer hl.Close()
	tr := hl.Tracker()
	now := nowSeconds()
	s.Heat = func(name string, ext int) float64 { return tr.ExtentHeat(name, ext, now) }
	rep, err := s.Repair(nodes)
	if err != nil {
		return err
	}
	fmt.Printf("repaired nodes %v: %d stripes, %d blocks restored, %d block-units transferred\n",
		nodes, rep.Stripes, rep.BlocksRestored, rep.Transfers)
	return flushObs(store, s)
}

func doTier(store string, args []string) error {
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "status":
		return doTierStatus(store)
	case "set":
		return doTierSet(store, args[1:])
	case "rebalance":
		return doTierRebalance(store, args[1:])
	case "daemon":
		return doTierDaemon(store, args[1:])
	default:
		usage()
		return nil
	}
}

func doTierStatus(store string) error {
	s, err := openStore(store)
	if err != nil {
		return err
	}
	hl, err := openHeat(store, s)
	if err != nil {
		return err
	}
	defer hl.Close()
	tr := hl.Tracker()
	now := nowSeconds()
	fmt.Printf("%-30s %-16s %9s %8s\n", "FILE", "CODE", "OVERHEAD", "HEAT")
	for _, name := range s.Files() {
		exts, _ := s.Extents(name)
		if len(exts) <= 1 {
			codeName, _ := s.FileCode(name)
			c, err := core.New(codeName)
			if err != nil {
				return err
			}
			fmt.Printf("%-30s %-16s %8.2fx %8.2f\n",
				name, codeName, core.StorageOverhead(c), tr.Heat(name, now))
			continue
		}
		codeName, _ := s.FileCode(name)
		fmt.Printf("%-30s %-16s %9s %8.2f\n", name, codeName, "", tr.Heat(name, now))
		for ext := range exts {
			extCode, _ := s.ExtentCode(name, ext)
			c, err := core.New(extCode)
			if err != nil {
				return err
			}
			// ExtentHeat, the extent's own decayed counter, is exactly
			// what the rebalance policy sees, so status never shows a
			// cold extent the daemon is busy promoting; the file's row
			// shows their sum.
			fmt.Printf("  extent %-3d %17s %-16s %8.2fx %8.2f\n",
				ext, "", extCode, core.StorageOverhead(c), tr.ExtentHeat(name, ext, now))
		}
	}
	return nil
}

func doTierSet(store string, args []string) error {
	fs := flag.NewFlagSet("tier set", flag.ExitOnError)
	ext := fs.Int("ext", -1, "move only this extent (-1 = whole file)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) != 2 {
		usage()
	}
	s, err := openStore(store)
	if err != nil {
		return err
	}
	var rep hdfsraid.TranscodeReport
	if *ext >= 0 {
		rep, err = s.TranscodeExtent(args[0], *ext, args[1])
	} else {
		rep, err = s.Transcode(args[0], args[1])
	}
	if err != nil {
		return err
	}
	fmt.Printf("transcoded %s: %s -> %s, %d extents, %d stripes, %d blocks written, %d removed\n",
		args[0], rep.From, rep.To, rep.Extents, rep.Stripes, rep.BlocksWritten, rep.BlocksRemoved)
	return flushObs(store, s)
}

// doTierRebalance runs one scan of an unbudgeted daemon: every move
// the policy wants, hottest first. The -dwell guard holds across
// invocations because each move's record in the manifest carries its
// time.
func doTierRebalance(store string, args []string) error {
	fs := flag.NewFlagSet("tier rebalance", flag.ExitOnError)
	policy := policyFlags(fs)
	fs.Float64Var(&policy.MinDwell, "dwell", 0, dwellHelp)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openStore(store)
	if err != nil {
		return err
	}
	hl, err := openHeat(store, s)
	if err != nil {
		return err
	}
	defer hl.Close()
	d, err := tier.NewDaemon(tier.StoreTarget{Store: s}, *policy, hl.Tracker(), tier.DaemonConfig{})
	if err != nil {
		return err
	}
	moves, err := d.Tick(nowSeconds())
	if err != nil {
		return err
	}
	if len(moves) == 0 {
		fmt.Println("tiering stable: no moves")
		return flushObs(store, s)
	}
	for _, mv := range moves {
		printMove(mv)
	}
	return flushObs(store, s)
}

// policyFlags declares the tier policy flags every tiering command
// (tier rebalance, tier daemon, serve -tierevery) takes, and returns the
// policy they fill in once fs is parsed.
func policyFlags(fs *flag.FlagSet) *tier.Policy {
	p := &tier.Policy{}
	fs.StringVar(&p.HotCode, "hot", "pentagon", "hot-tier code")
	fs.StringVar(&p.ColdCode, "cold", "rs-14-10", "cold-tier code")
	fs.Float64Var(&p.PromoteAt, "promote", 5, "promote at this decayed heat")
	fs.Float64Var(&p.DemoteAt, "demote", 1, "demote at or below this decayed heat")
	return p
}

// dwellHelp describes -dwell, which the per-store tiering commands add
// to the policy flags (serve has never taken it).
const dwellHelp = "min seconds between moves of one extent"

// printMove reports one executed extent move.
func printMove(mv tier.MoveResult) {
	dir := "demote"
	if mv.Promote {
		dir = "promote"
	}
	fmt.Printf("%s %s[x%d]: %s -> %s (heat %.2f, %d block-units moved)\n",
		dir, mv.Name, mv.Ext, mv.From, mv.To, mv.Heat, mv.BlocksMoved)
}

// doTierDaemon runs the background rebalance daemon in the
// foreground: every -every seconds it tails the heat other processes
// logged, asks the policy for moves, and executes them hottest file
// first under a -budget MB/s transcode rate limit (0 = unlimited). It
// stops after -duration seconds, or on interrupt when 0.
func doTierDaemon(store string, args []string) error {
	fs := flag.NewFlagSet("tier daemon", flag.ExitOnError)
	policy := policyFlags(fs)
	fs.Float64Var(&policy.MinDwell, "dwell", 0, dwellHelp)
	every := fs.Float64("every", 10, "seconds between rebalance scans")
	budget := fs.Float64("budget", 0, "transcode budget, MB/s (0 = unlimited)")
	scrub := fs.Float64("scrub", 0, "trickle-scrub up to this many MB per scan from the leftover move budget (0 = off)")
	duration := fs.Float64("duration", 0, "run this many seconds (0 = until interrupt)")
	metrics := fs.String("metrics", "", "serve live metrics over HTTP on this address (e.g. :8080)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openStore(store)
	if err != nil {
		return err
	}
	hl, err := openHeat(store, s)
	if err != nil {
		return err
	}
	d, err := tier.NewDaemon(tier.StoreTarget{Store: s}, *policy, hl.Tracker(), tier.DaemonConfig{
		Interval:     *every,
		BytesPerSec:  *budget * 1e6,
		BlockBytes:   s.BlockSize(),
		ScrubPerScan: *scrub * 1e6,
	})
	if err != nil {
		return err
	}
	if *scrub > 0 {
		d.Scrub = tier.StoreTarget{Store: s}
	}
	// Concurrent hdfscli gets and per-shard servers append heat to the
	// shared log; tail their records before every scan — O(new records).
	// Whoever flushes the log past its checkpoint threshold folds it.
	d.OnTick = func(float64) { hl.Refresh() }
	d.OnMove = func(mv tier.MoveResult, now float64) { printMove(mv) }
	// One registry serves both layers: the daemon's scan/budget metrics
	// land beside the store's data-plane metrics, so the endpoint (and
	// the persisted snapshot) shows moves and the traffic they caused
	// together.
	d.Obs = s.Obs()
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: s.Obs().Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("metrics: http://%s/debug/vars\n", ln.Addr())
	}
	if err := d.Start(); err != nil {
		return err
	}
	fmt.Printf("rebalance daemon running: scan every %gs, budget %g MB/s (0 = unlimited); ^C to stop\n",
		*every, *budget)
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	if *duration > 0 {
		select {
		case <-time.After(time.Duration(*duration * float64(time.Second))):
		case <-interrupt:
		}
	} else {
		<-interrupt
	}
	d.Stop()
	// Shutdown folds the heat log into its snapshot; a kill instead
	// loses at most the unflushed batch and the next open replays the
	// rest.
	if err := hl.Compact(); err != nil {
		return err
	}
	if err := hl.Close(); err != nil {
		return err
	}
	st := d.Stats()
	fmt.Printf("daemon stopped: %d scans, %d moves (%d promote / %d demote), %d deferred, %.1f MB moved, %.1f MB scrubbed\n",
		st.Ticks, st.Moves, st.Promotions, st.Demotions, st.Deferred, st.BytesMoved/1e6, st.ScrubbedBytes/1e6)
	// Unrepairable corruption a background scrub found comes back
	// through the daemon's error stats: exit nonzero so supervisors see
	// it.
	if err := d.Err(); err != nil {
		return err
	}
	return flushObs(store, s)
}

// doScrub runs the trickle scrubber in the foreground: verify block
// CRCs in scan order (resuming wherever the previous scrub — CLI or
// daemon — stopped), healing every latent error found, at most -budget
// MB this invocation. Unrepairable blocks make the command exit
// nonzero: that is the signal a cron-driven scrub rotation alerts on.
func doScrub(store string, args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	budget := fs.Float64("budget", 0, "verify at most this many MB (0 = one full pass)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openStore(store)
	if err != nil {
		return err
	}
	rep, err := s.Scrub(int64(*budget * 1e6))
	if err != nil {
		return err
	}
	coverage := "partial pass; rerun to continue"
	if rep.Wrapped {
		coverage = "full pass"
	}
	fmt.Printf("scrubbed %d blocks (%.2f MB, %s): %d corrupt, %d missing, %d healed, %d unrepairable\n",
		rep.BlocksScanned, float64(rep.BytesScanned)/1e6,
		coverage, rep.CorruptFound, rep.MissingFound, rep.Healed, rep.Unrepairable)
	if q, qErr := s.Quarantined(); qErr == nil && len(q) > 0 {
		fmt.Printf("%d captured bad frames under %s/\n", len(q), hdfsraid.QuarantineDir)
	}
	if err := flushObs(store, s); err != nil {
		return err
	}
	if rep.Unrepairable > 0 {
		return fmt.Errorf("%d blocks unrepairable (more failures than their codes tolerate)", rep.Unrepairable)
	}
	return nil
}

func doFsck(store string) error {
	s, err := openStore(store)
	if err != nil {
		return err
	}
	if rec := s.LastRecovery(); rec.Skipped {
		fmt.Println("recovery: skipped, another process is moving extents in this store")
	} else if rec.Orphans > 0 {
		fmt.Printf("recovery: %d stale block files swept\n", rec.Orphans)
	}
	rep, err := s.Fsck()
	if err != nil {
		return err
	}
	status := "HEALTHY"
	if !rep.Healthy() {
		status = "DEGRADED"
	}
	fmt.Printf("%s: %d blocks, %d missing, %d corrupt, %d orphans\n", status, rep.Blocks, rep.Missing, rep.Corrupt, rep.Orphans)
	// What the layout stores per byte of file — tail stripes store only
	// the symbols that carry data — beside the default code's rate.
	live := 0
	for _, name := range s.Files() {
		fi, _ := s.Info(name)
		live += fi.Length
	}
	if live > 0 {
		fmt.Printf("overhead: %.3fx stored (%d blocks of %d B for %d B of files), %s nominal %.3fx\n",
			float64(rep.Blocks)*float64(s.BlockSize())/float64(live), rep.Blocks, s.BlockSize(), live,
			s.CodeName(), core.StorageOverhead(s.Code()))
	}
	return flushObs(store, s)
}

// doStats reports the store's accumulated telemetry: the persisted
// snapshot of every prior invocation merged with whatever this very
// invocation generated (Open may have swept a killed move), persisted
// back so nothing is lost. -json emits the machine-readable schema the
// live endpoint shares; the default is a human-readable table.
func doStats(store string, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the snapshot as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := openStore(store)
	if err != nil {
		return err
	}
	snap, err := obs.ReadSnapshotFile(obsPath(store))
	if err != nil {
		return err
	}
	if reg := s.Obs(); reg != nil {
		snap.Merge(reg.Snapshot())
	}
	if err := obs.WriteSnapshotFile(obsPath(store), snap); err != nil {
		return err
	}
	if *asJSON {
		raw, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
		return nil
	}
	snap.WriteText(os.Stdout)
	return nil
}

// doServe runs the sharded serving front door in the foreground: the
// store directory holds N independent shard stores, the ring routes
// each file name to one of them, and internal/serve's handler exposes
// the streaming HTTP API. SIGINT/SIGTERM stops accepting new requests,
// drains the in-flight ones, then persists each shard's tier state.
func doServe(store string, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (port 0 picks a free port)")
	create := fs.Bool("create", false, "create the shard stores before serving")
	shards := fs.Int("shards", 4, "shard count (with -create)")
	code := fs.String("code", "pentagon", "coding scheme (with -create)")
	blockSize := fs.Int("blocksize", 1<<20, "block size in bytes (with -create)")
	extentBlocks := fs.Int("extentblocks", 0, "extent size in data blocks (with -create)")
	resumeReshard := fs.Bool("resume-reshard", false, "serve a half-resharded directory and finish its reshard in the background")
	cacheMB := fs.Int64("cache-mb", 64, "memory for the shared cache of hot decoded extents, MiB (0 = none)")
	tierEvery := fs.Float64("tierevery", 0, "run a tier daemon per shard, scanning every this many seconds (0 = off)")
	policy := policyFlags(fs) // consulted with -tierevery
	budget := fs.Float64("budget", 0, "per-shard transcode budget, MB/s (with -tierevery; 0 = unlimited)")
	scrub := fs.Float64("scrub", 0, "per-shard trickle scrub, MB per scan (with -tierevery; 0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *create {
		if err := serve.CreateShards(store, *code, *blockSize, *extentBlocks, *shards); err != nil {
			return err
		}
		fmt.Printf("created %d %s shards at %s\n", *shards, *code, store)
	}
	cfg := serve.Config{ResumeReshard: *resumeReshard, ReadCacheBytes: *cacheMB << 20}
	if *tierEvery > 0 {
		cfg.Tier = &serve.TierConfig{
			HotCode: policy.HotCode, ColdCode: policy.ColdCode,
			PromoteAt: policy.PromoteAt, DemoteAt: policy.DemoteAt,
			Interval:     *tierEvery,
			BytesPerSec:  *budget * 1e6,
			ScrubPerScan: *scrub * 1e6,
		}
	}
	srv, err := serve.Open(store, cfg)
	if err != nil {
		if errors.Is(err, serve.ErrReshardPending) {
			return fmt.Errorf("%s is mid-reshard (%s); serve it with -resume-reshard, or finish offline with 'hdfscli -store %s reshard -resume'", store, reshardProgress(store), store)
		}
		if _, statErr := os.Stat(filepath.Join(store, "shard-00")); os.IsNotExist(statErr) {
			return fmt.Errorf("no shards at %s (run 'hdfscli -store %s serve -create' first)", store, store)
		}
		return err
	}
	// Attach the resharder so /admin/reshard works; with -resume-reshard
	// it also finishes any pending reshard in the background while the
	// dual-ring router keeps every name servable.
	ctl, err := reshard.Attach(store, srv, reshard.Options{})
	if err != nil {
		srv.Close()
		return err
	}
	if *resumeReshard {
		if err := ctl.Resume(); err != nil && !errors.Is(err, reshard.ErrNothingPending) {
			srv.Close()
			return err
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	// Bodies stream for as long as they take; only a client that never
	// finishes its request header is cut off.
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	// The signal handler must be live before the readiness line goes
	// out: a supervisor may TERM us the instant it reads the address.
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	fmt.Printf("serving %d shards on http://%s\n", srv.NumShards(), ln.Addr())
	select {
	case err := <-done:
		srv.Close()
		return err
	case sig := <-interrupt:
		fmt.Printf("%v: draining in-flight requests\n", sig)
	}
	// Shutdown closes the listener, waits for active requests to finish,
	// and only then returns — a drained stop, not a dropped one.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
		srv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("drained; server stopped")
	return srv.Close()
}

// reshardProgress names a serving root's pending reshard for the
// one-line mid-reshard diagnosis.
func reshardProgress(store string) string {
	p, err := reshard.ReadPending(store)
	if err != nil || p == nil {
		return "pending record unreadable"
	}
	return fmt.Sprintf("%d -> %d shards", p.FromShards, p.ToShards)
}

// doReshard changes a serving directory's shard count offline: run a
// grow with -to N, continue a pending one with -resume, or report the
// names it has left with -status. The directory is opened in resume
// mode so a half-resharded root is servable here by construction.
func doReshard(store string, args []string) error {
	fs := flag.NewFlagSet("reshard", flag.ExitOnError)
	to := fs.Int("to", 0, "target shard count (must exceed the current count)")
	resume := fs.Bool("resume", false, "resume the pending reshard")
	status := fs.Bool("status", false, "report reshard state without moving anything")
	throttle := fs.Float64("throttle", 0, "seconds to sleep between names (trickle pacing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv, err := serve.Open(store, serve.Config{ResumeReshard: true})
	if err != nil {
		if _, statErr := os.Stat(filepath.Join(store, "shard-00")); os.IsNotExist(statErr) {
			return fmt.Errorf("no shards at %s (run 'hdfscli -store %s serve -create' first)", store, store)
		}
		return err
	}
	defer srv.Close()
	ctl, err := reshard.Attach(store, srv, reshard.Options{
		Throttle: time.Duration(*throttle * float64(time.Second)),
	})
	if err != nil {
		return err
	}
	if *status {
		st := ctl.Status()
		if !st.Present {
			fmt.Printf("no reshard pending: %d shards, single-ring routing\n", srv.NumShards())
			return nil
		}
		fmt.Printf("reshard %d -> %d pending: %d names left to move (resume with 'hdfscli -store %s reshard -resume')\n",
			st.From, st.To, st.Total-st.Done, store)
		return nil
	}
	switch {
	case *resume:
		if err := ctl.Resume(); err != nil {
			if errors.Is(err, reshard.ErrNothingPending) {
				fmt.Printf("nothing to resume: no reshard pending at %s\n", store)
				return nil
			}
			return err
		}
	case *to > 0:
		if err := ctl.Start(*to); err != nil {
			return err
		}
	default:
		return fmt.Errorf("reshard needs -to N, -resume, or -status")
	}
	if err := ctl.Wait(); err != nil {
		return err
	}
	st := ctl.Status()
	fmt.Printf("reshard complete: %d shards, %d/%d names moved, %d skipped\n",
		srv.NumShards(), st.Done, st.Total, st.Skipped)
	return nil
}
