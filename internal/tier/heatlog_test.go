package tier

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/tier/accesslog"
)

func openTestHeatLog(t *testing.T, dir string) *HeatLog {
	t.Helper()
	h, err := OpenHeatLog(dir, 0, accesslog.Options{})
	if err != nil {
		t.Fatalf("OpenHeatLog: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func heatFiles(t *testing.T, dir string) (snap, log []byte) {
	t.Helper()
	snap, err := os.ReadFile(filepath.Join(dir, heatFileName))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	log, err = os.ReadFile(filepath.Join(dir, heatLogName))
	if err != nil {
		t.Fatal(err)
	}
	return snap, log
}

// syncsOf returns the fsyncs fn issued.
func syncsOf(t *testing.T, fn func() error) int64 {
	t.Helper()
	before := durable.Syncs()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return durable.Syncs() - before
}

// TestHeatLogDurableAcrossReopen: touches cost no fsync until a batch
// is due, a flush costs exactly one, and heat comes back from the log
// alone — no snapshot is ever written wholesale.
func TestHeatLogDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	h := openTestHeatLog(t, dir)
	if n := syncsOf(t, func() error {
		for i := 0; i < 5; i++ {
			if err := h.TouchExtent("f.bin", i%2, 10); err != nil {
				return err
			}
		}
		return h.TouchExtent("g.bin", 0, 11)
	}); n != 0 {
		t.Fatalf("six touches under both thresholds issued %d fsyncs, want 0", n)
	}
	if n := syncsOf(t, h.Flush); n != 1 {
		t.Fatalf("a flush issued %d fsyncs, want 1", n)
	}
	if n := syncsOf(t, h.Flush); n != 0 {
		t.Fatalf("a flush of nothing issued %d fsyncs, want 0", n)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if snap, _ := heatFiles(t, dir); snap != nil {
		t.Fatal("a snapshot was written without a checkpoint")
	}
	h2 := openTestHeatLog(t, dir)
	if got := h2.Tracker().Heat("f.bin", 10); got != 5 {
		t.Fatalf("f.bin heat after reopen = %v, want 5", got)
	}
	if got := h2.Tracker().Heat("g.bin", 11); got != 1 {
		t.Fatalf("g.bin heat after reopen = %v, want 1", got)
	}
}

// TestHeatLogCompactThenReopen: a compaction is one flush plus one
// checkpoint (1 + 2 fsyncs), leaves the heat in a snapshot of the next
// generation beside an empty log, and reopens to the same heat; with no
// record since, a compaction writes nothing.
func TestHeatLogCompactThenReopen(t *testing.T) {
	dir := t.TempDir()
	h := openTestHeatLog(t, dir)
	for i := 0; i < 20; i++ {
		if err := h.TouchExtent("c.bin", i%4, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := h.Tracker().Heat("c.bin", 19)
	if n := syncsOf(t, h.Compact); n != 3 {
		t.Fatalf("flush + checkpoint issued %d fsyncs, want 3", n)
	}
	snap, log := heatFiles(t, dir)
	if !bytes.Contains(snap, []byte(`"log_gen": 1`)) || len(log) != 0 {
		t.Fatalf("after Compact: %d log bytes beside the snapshot\n%s", len(log), snap)
	}
	if n := syncsOf(t, h.Compact); n != 0 {
		t.Fatalf("a compaction with nothing to fold issued %d fsyncs, want 0", n)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2 := openTestHeatLog(t, dir)
	if got := h2.Tracker().Heat("c.bin", 19); got != want || got != 20 {
		t.Fatalf("heat after compact+reopen = %v, want %v", got, want)
	}
	if n := syncsOf(t, h2.Compact); n != 0 {
		t.Fatalf("a compaction by a handle that only read issued %d fsyncs, want 0", n)
	}
	if again, _ := heatFiles(t, dir); !bytes.Equal(again, snap) {
		t.Fatal("idle compactions rewrote the snapshot")
	}
}

// TestHeatLogRefreshTailsForeignWriters simulates the daemon (one
// HeatLog) tailing appends made by a serving process (another HeatLog
// on the same store) without re-reading the whole heat state, and not
// double-counting its own appends.
func TestHeatLogRefreshTailsForeignWriters(t *testing.T) {
	dir := t.TempDir()
	daemon := openTestHeatLog(t, dir)
	server := openTestHeatLog(t, dir)
	daemon.Obs = obs.NewRegistry()

	// The daemon has its own traffic too, flushed and not — Refresh
	// must not apply it a second time.
	if err := daemon.TouchExtent("mine.bin", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := daemon.TouchExtent("mine.bin", 0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := server.TouchExtent("theirs.bin", 0, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The server's flush tails the daemon's batch on its way.
	if err := server.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := server.Tracker().Heat("mine.bin", 1); got != 1 {
		t.Fatalf("server sees %v of the daemon's flushed heat, want 1", got)
	}
	for round := 0; round < 2; round++ {
		if err := daemon.Refresh(); err != nil {
			t.Fatal(err)
		}
		if got := daemon.Tracker().Heat("theirs.bin", 9); got != 10 {
			t.Fatalf("refresh %d: daemon sees foreign heat %v, want 10", round, got)
		}
		if got := daemon.Tracker().Heat("mine.bin", 1); got != 2 {
			t.Fatalf("refresh %d: daemon's own heat %v, want 2", round, got)
		}
	}
	c := daemon.Obs.Snapshot().Counters
	if c["accesslog_tailed_records_total"] != 10 || c["accesslog_reloads_total"] != 0 {
		t.Fatalf("daemon tailed %d records with %d reloads, want 10 and 0",
			c["accesslog_tailed_records_total"], c["accesslog_reloads_total"])
	}
}

// TestHeatLogRefreshSurvivesForeignCompaction: another process folds
// the log out from under a tailing handle; its next Refresh rebuilds
// the view from the new snapshot + log and ends exact — its own
// flushed records (now in the snapshot) and its unflushed batch
// (nowhere on disk yet) each counted once.
func TestHeatLogRefreshSurvivesForeignCompaction(t *testing.T) {
	dir := t.TempDir()
	daemon := openTestHeatLog(t, dir)
	server := openTestHeatLog(t, dir)
	daemon.Obs = obs.NewRegistry()

	if err := daemon.TouchExtent("mine.bin", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := daemon.TouchExtent("mine.bin", 0, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := server.TouchExtent("x.bin", 0, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The server compacts, as a shard shutdown does, and moves on in
	// the new generation.
	if err := server.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := server.TouchExtent("x.bin", 0, 6); err != nil {
		t.Fatal(err)
	}
	if err := server.Flush(); err != nil {
		t.Fatal(err)
	}
	tr := daemon.Tracker()
	if err := daemon.Refresh(); err != nil {
		t.Fatal(err)
	}
	if daemon.Tracker() != tr {
		t.Fatal("a reload replaced the tracker managers hold")
	}
	if got := tr.Heat("x.bin", 6); got != 7 {
		t.Fatalf("daemon heat after foreign compaction = %v, want 7", got)
	}
	if got := tr.Heat("mine.bin", 2); got != 2 {
		t.Fatalf("daemon's own heat after the reload = %v, want 2", got)
	}
	if got := daemon.Obs.Snapshot().Counters["accesslog_reloads_total"]; got != 1 {
		t.Fatalf("%d reloads, want 1", got)
	}
	// The unflushed record reaches disk once.
	if err := daemon.Close(); err != nil {
		t.Fatal(err)
	}
	if got := openTestHeatLog(t, dir).Tracker().Heat("mine.bin", 2); got != 2 {
		t.Fatalf("mine.bin after everyone flushed = %v, want 2", got)
	}
}

// TestHeatLogCompactionKillPoints leaves the store as a compaction
// that crashed before its snapshot was renamed into place ("folded":
// the torn temp file beside the old snapshot and the full log) and
// after it but before the log was emptied ("committed": the new
// snapshot beside the old log). Either way a reopen counts every
// flushed record exactly once without touching either file, the next
// flush sweeps the stale log, and a clean compaction converges.
func TestHeatLogCompactionKillPoints(t *testing.T) {
	for _, stage := range []string{"folded", "committed"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			h := openTestHeatLog(t, dir)
			for i := 0; i < 12; i++ {
				if err := h.TouchExtent("kp.bin", i%3, float64(i)); err != nil {
					t.Fatal(err)
				}
				if i == 5 { // a snapshot of generation 1 under the log
					if err := h.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := h.Flush(); err != nil {
				t.Fatal(err)
			}
			logPath := filepath.Join(dir, heatLogName)
			if stage == "folded" {
				if err := os.WriteFile(filepath.Join(dir, heatFileName+".tmp"), []byte(`{"half_`), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				_, oldLog := heatFiles(t, dir)
				if err := h.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(logPath, oldLog, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			h.Close() // the "crashed" process is gone
			snap, log := heatFiles(t, dir)
			if len(log) == 0 {
				t.Fatal("no log left to be stale")
			}

			h2 := openTestHeatLog(t, dir)
			if got := h2.Tracker().Heat("kp.bin", 11); got != 12 {
				t.Fatalf("heat after a crash at %q = %v, want 12", stage, got)
			}
			if snap2, log2 := heatFiles(t, dir); !bytes.Equal(snap2, snap) || !bytes.Equal(log2, log) {
				t.Fatal("a handle that only read changed the heat files")
			}
			if err := h2.TouchExtent("kp.bin", 0, 12); err != nil {
				t.Fatal(err)
			}
			if err := h2.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, log2 := heatFiles(t, dir); stage == "committed" && len(log2) >= len(log) {
				t.Fatalf("stale log not swept by the next flush: %d bytes (was %d)", len(log2), len(log))
			}
			if err := h2.Compact(); err != nil {
				t.Fatal(err)
			}
			h2.Close()
			if got := openTestHeatLog(t, dir).Tracker().Heat("kp.bin", 12); got != 13 {
				t.Fatalf("heat after the recovery compaction = %v, want 13", got)
			}
		})
	}
}

// TestHeatLogTornTail: a kill in the middle of a flush costs the batch
// in flight and nothing else — the torn bytes are left alone by a
// handle that only reads and cut off by the next flush.
func TestHeatLogTornTail(t *testing.T) {
	dir := t.TempDir()
	h := openTestHeatLog(t, dir)
	for i := 0; i < 4; i++ {
		if err := h.TouchExtent("t.bin", 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	_, whole := heatFiles(t, dir)
	rec := accesslog.Record{Name: "t.bin", N: 1, Time: 1}.Encode()
	// Half of a second batch: a frame header promising more than follows.
	torn := append(bytes.Clone(whole), byte(len(rec)), 0, 0, 0, 1, 2, 3, 4)
	torn = append(torn, rec[:len(rec)/2]...)
	logPath := filepath.Join(dir, heatLogName)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	h2 := openTestHeatLog(t, dir)
	if got := h2.Tracker().Heat("t.bin", 1); got != 4 {
		t.Fatalf("heat beside a torn tail = %v, want 4", got)
	}
	if _, log := heatFiles(t, dir); !bytes.Equal(log, torn) {
		t.Fatal("a handle that only read changed the log")
	}
	if err := h2.TouchExtent("t.bin", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, log := heatFiles(t, dir); !bytes.Equal(log[:len(whole)], whole) || len(log) != len(whole)+8+len(rec) {
		t.Fatalf("the next flush left %d log bytes, want the %d intact ones plus one %d-byte frame", len(log), len(whole), 8+len(rec))
	}
	if got := openTestHeatLog(t, dir).Tracker().Heat("t.bin", 1); got != 5 {
		t.Fatalf("heat after the next flush = %v, want 5", got)
	}
}

// TestHeatLogSkipsAlienRecord: a CRC-valid frame whose payload is not
// a heat record (a newer writer's) sits between two good batches from
// two handles. It is skipped and counted, never an error: an error
// would fail every later flush at its refresh, and leave the log
// marked torn at the alien frame, where an append would cut off it and
// every batch behind it.
func TestHeatLogSkipsAlienRecord(t *testing.T) {
	dir := t.TempDir()
	a, b := openTestHeatLog(t, dir), openTestHeatLog(t, dir)
	b.Obs = obs.NewRegistry()
	if err := a.TouchExtent("a.bin", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := durable.OpenLog(filepath.Join(dir, heatLogName))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.Replay(0, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := raw.Append([]byte(`{"v":2,"name":"a.bin","weight":40}`)); err != nil {
		t.Fatal(err)
	}
	if err := b.TouchExtent("b.bin", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	_, log := heatFiles(t, dir)
	if int64(len(log)) <= raw.Size() || !bytes.Contains(log, []byte(`"weight":40`)) {
		t.Fatalf("b's flush left %d log bytes; the alien frame ended at %d", len(log), raw.Size())
	}
	if got := b.Obs.Snapshot().Counters["accesslog_skipped_records_total"]; got != 1 {
		t.Fatalf("b skipped %d records, want 1", got)
	}
	// a tails past the alien frame to b's batch, and appends behind it.
	if err := a.TouchExtent("a.bin", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*HeatLog{a, b, openTestHeatLog(t, dir)} {
		if err := h.Refresh(); err != nil {
			t.Fatal(err)
		}
		if ha, hb := h.Tracker().Heat("a.bin", 1), h.Tracker().Heat("b.bin", 1); ha != 2 || hb != 1 {
			t.Fatalf("heat around the alien frame: a.bin %v, b.bin %v; want 2 and 1", ha, hb)
		}
	}
}

// TestHeatLogOpensWholeFileHeat: heat files written when a file also
// had a whole-file counter open as they are. The snapshot's "whole"
// counters are ignored, and a log record without an extent (Ext < 0)
// is skipped and counted like a newer writer's; extent heat is kept.
func TestHeatLogOpensWholeFileHeat(t *testing.T) {
	dir := t.TempDir()
	h := openTestHeatLog(t, dir)
	if err := h.TouchExtent("f.bin", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	snap, _ := heatFiles(t, dir)
	var st map[string]any
	if err := json.Unmarshal(snap, &st); err != nil {
		t.Fatal(err)
	}
	st["files"].(map[string]any)["f.bin"].(map[string]any)["whole"] = map[string]any{"heat": 7, "last": 0}
	if snap, err := json.Marshal(st); err != nil || os.WriteFile(filepath.Join(dir, heatFileName), snap, 0o644) != nil {
		t.Fatalf("rewriting the snapshot: %v", err)
	}

	b := openTestHeatLog(t, dir)
	b.Obs = obs.NewRegistry()
	if err := b.TouchExtent("f.bin", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := durable.OpenLog(filepath.Join(dir, heatLogName))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.Replay(0, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	whole := accesslog.Record{Name: "f.bin", Ext: -1, N: 5, Time: 0, Src: 7}
	ext := accesslog.Record{Name: "f.bin", Ext: 1, N: 2, Time: 0, Src: 7}
	if err := raw.Append(whole.Encode(), ext.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := b.Obs.Snapshot().Counters["accesslog_skipped_records_total"]; got != 1 {
		t.Fatalf("skipped %d records, want the whole-file one", got)
	}
	for _, h := range []*HeatLog{b, openTestHeatLog(t, dir)} {
		tr := h.Tracker()
		if e0, e1, f := tr.ExtentHeat("f.bin", 0, 0), tr.ExtentHeat("f.bin", 1, 0), tr.Heat("f.bin", 0); e0 != 0 || e1 != 4 || f != 4 {
			t.Fatalf("extent 0 heat %v, extent 1 heat %v, file heat %v; want 0, 4, 4", e0, e1, f)
		}
	}
}

// TestConcurrentWritersReadersCompactor is the -race coverage for the
// shared log: two handles touch from two goroutines each and flush
// past the checkpoint threshold again and again, a third tails and
// compacts — all concurrently — and at the end every handle, and a
// fresh open, account for every touch exactly once.
func TestConcurrentWritersReadersCompactor(t *testing.T) {
	t.Cleanup(SetCheckpointFloor(4 << 10))
	dir := t.TempDir()
	const perGoroutine = 1500
	writers := []*HeatLog{openTestHeatLog(t, dir), openTestHeatLog(t, dir)}
	daemon := openTestHeatLog(t, dir)
	daemon.Obs = obs.NewRegistry()

	var wg sync.WaitGroup
	for _, h := range writers {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perGoroutine; i++ {
					if err := h.TouchExtent("hot.bin", i%4, float64(i)); err != nil {
						t.Errorf("TouchExtent: %v", err)
						return
					}
				}
			}()
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			op := daemon.Refresh
			if i%8 == 7 {
				op = daemon.Compact
			}
			if err := op(); err != nil {
				t.Errorf("daemon: %v", err)
				return
			}
			daemon.Tracker().Heat("hot.bin", 0)
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	for _, h := range writers {
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	const want = 4 * perGoroutine
	for i, h := range append(writers, daemon, openTestHeatLog(t, dir)) {
		if err := h.Refresh(); err != nil {
			t.Fatal(err)
		}
		if got := h.Tracker().Heat("hot.bin", perGoroutine); got != want {
			t.Fatalf("handle %d accounts for %v touches, want %d", i, got, want)
		}
	}
	snap, _ := heatFiles(t, dir)
	if snap == nil {
		t.Fatal("no checkpoint ever ran")
	}
	if got := daemon.Obs.Snapshot().Counters["accesslog_reloads_total"]; got == 0 {
		t.Fatal("the daemon never had to follow a writer's checkpoint")
	}
}

// TestHeatLogMetricsDocumented: the accesslog_* counters a HeatLog can
// register and the ones docs/OBSERVABILITY.md lists are the same set.
func TestHeatLogMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("heatlog.go")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("accesslog_[a-z_]+")
	listed := func(text []byte) map[string]bool {
		set := map[string]bool{}
		for _, m := range name.FindAll(text, -1) {
			set[string(m)] = true
		}
		return set
	}
	registered, documented := listed(src), listed(doc)
	for n := range registered {
		if !documented[n] {
			t.Errorf("%s is registered but not in docs/OBSERVABILITY.md", n)
		}
	}
	for n := range documented {
		if !registered[n] {
			t.Errorf("docs/OBSERVABILITY.md lists %s, which nothing registers", n)
		}
	}
}
