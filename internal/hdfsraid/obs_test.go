package hdfsraid

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/block"
)

// TestStoreObsIntegration replays the acceptance scenario against one
// store — put, intact get, extent move, node failures, degraded get,
// repair — and asserts the registry recorded each step: latency
// histogram counts, the degraded-read counter, bytes in/out, transcode
// stage timings and bytes moved, and the journal trace's one moved
// event.
func TestStoreObsIntegration(t *testing.T) {
	s, err := CreateExt(t.TempDir(), "pentagon", blockSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := randomFile(t, 6*blockSize, 11)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// An intact whole-file read takes the six data blocks' frames from
	// disk and nothing else.
	if got, want := cacheCount(s, cBlockReadBytes), int64(6*block.FrameSize(blockSize)); got != want {
		t.Errorf("%s = %d after one intact get, want %d", counterNames[cBlockReadBytes], got, want)
	}
	if _, err := s.TranscodeExtent("f", 0, "rs-14-10"); err != nil {
		t.Fatal(err)
	}
	// Pentagon tolerates two failures; kill two nodes so the next get
	// must reconstruct at least one symbol instead of reading replicas.
	for _, v := range []int{0, 1} {
		if err := s.KillNode(v); err != nil {
			t.Fatal(err)
		}
	}
	if got, err = s.Get("f"); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(got, data) {
		t.Fatal("degraded round trip mismatch")
	}
	if _, err := s.Repair([]int{0, 1}); err != nil {
		t.Fatal(err)
	}

	snap := s.Obs().Snapshot()
	c, h := snap.Counters, snap.Histograms
	// The 6-block file is a 4-block and a 2-block extent, each one
	// shortened pentagon stripe with 5 and 7 of its 9 data symbols
	// known zero; moving extent 0 to rs-14-10 leaves 6 of 10 zero.
	if c[counterNames[cZeroElided]] != 5+7+6 {
		t.Errorf("zero symbols elided = %d, want 18", c[counterNames[cZeroElided]])
	}
	// One put and one move: a log record each on top of the snapshot
	// Create wrote, both still in the log.
	if c[counterNames[cLogAppends]] != 2 || c[counterNames[cCheckpoints]] != 1 {
		t.Errorf("manifest log appends = %d, checkpoints = %d; want 2, 1",
			c[counterNames[cLogAppends]], c[counterNames[cCheckpoints]])
	}
	if fi, err := os.Stat(s.root + "/" + logName); err != nil || c[counterNames[cLogBytes]] != fi.Size() {
		t.Errorf("manifest log bytes counted = %d, the log holds %v (%v)", c[counterNames[cLogBytes]], fi, err)
	}
	if h[histNames[hPut]].Count == 0 {
		t.Error("put latency histogram empty")
	}
	if h[histNames[hGetIntact]].Count == 0 {
		t.Error("intact get latency histogram empty")
	}
	if h[histNames[hGetDegraded]].Count == 0 {
		t.Error("degraded get latency histogram empty")
	}
	if c[counterNames[cReadsDegraded]] == 0 {
		t.Error("degraded-read counter is zero after reading past two dead nodes")
	}
	if c[counterNames[cBytesIn]] != int64(len(data)) {
		t.Errorf("bytes in = %d, want %d", c[counterNames[cBytesIn]], len(data))
	}
	if want := int64(2 * len(data)); c[counterNames[cBytesOut]] != want {
		t.Errorf("bytes out = %d, want %d (two whole-file gets)", c[counterNames[cBytesOut]], want)
	}
	if c[counterNames[cTcMoves]] != 1 {
		t.Errorf("transcode moves = %d, want 1", c[counterNames[cTcMoves]])
	}
	if c[counterNames[cTcBytesMoved]] == 0 {
		t.Error("transcode bytes-moved counter is zero after an extent move")
	}
	for _, name := range []string{histNames[hTcRead], histNames[hTcEncode], histNames[hTcWrite]} {
		if h[name].Count == 0 {
			t.Errorf("transcode stage histogram %s empty", name)
		}
	}
	if h[histNames[hRepair]].Count == 0 {
		t.Error("repair latency histogram empty")
	}
	if c[counterNames[cRepairBlocks]] == 0 {
		t.Error("repair restored-blocks counter is zero")
	}
	events := snap.Traces[traceNames[traceJournal]]
	if len(events) != 1 || events[0].Type != "moved" || events[0].Name != "f" || events[0].Ext != 0 {
		t.Fatalf("journal trace = %+v, want one moved event tagged f[x0]", events)
	}
}

// TestMetricNamesDocumented: every counter, histogram and gauge the
// store registers is named in docs/OBSERVABILITY.md.
func TestMetricNamesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	snap := newStoreObs().reg.Snapshot()
	for name := range snap.Counters {
		if !bytes.Contains(doc, []byte("`"+name+"`")) {
			t.Errorf("counter %s is not documented in docs/OBSERVABILITY.md", name)
		}
	}
	for name := range snap.Histograms {
		if !bytes.Contains(doc, []byte("`"+name+"`")) {
			t.Errorf("histogram %s is not documented in docs/OBSERVABILITY.md", name)
		}
	}
	for name := range snap.Gauges {
		if !bytes.Contains(doc, []byte("`"+name+"`")) {
			t.Errorf("gauge %s is not documented in docs/OBSERVABILITY.md", name)
		}
	}
}

// TestObsRecoveryMetrics crashes a move once its record is durable and
// asserts the recovery pass both sweeps the generation it left and
// records the outcome: the orphans counter and an "orphan_sweep" trace
// event after the move's own "moved".
func TestObsRecoveryMetrics(t *testing.T) {
	s := newStore(t, "pentagon")
	if err := s.Put("f", randomFile(t, 4*blockSize, 3)); err != nil {
		t.Fatal(err)
	}
	killAt(s, "moved")
	if _, err := s.Transcode("f", "rs-14-10"); err == nil {
		t.Fatal("kill point did not fire")
	}
	s.killHook = nil
	swept := blocksOn(t, s, "pentagon", 4)
	rec, err := s.Recover()
	if err != nil || rec.Orphans != swept {
		t.Fatalf("recover = %+v, %v; want %d orphans", rec, err, swept)
	}
	snap := s.Obs().Snapshot()
	if got := snap.Counters[counterNames[cJournalOrphans]]; got != int64(swept) {
		t.Errorf("orphans counter = %d, want %d", got, swept)
	}
	var types []string
	for _, e := range snap.Traces[traceNames[traceJournal]] {
		types = append(types, e.Type)
	}
	if fmt.Sprint(types) != "[moved orphan_sweep]" {
		t.Errorf("journal trace = %v, want a moved then an orphan_sweep event", types)
	}
}

// TestObsOverheadGate prices the instrumentation on the read hot path:
// the same get loop with metrics on and with s.obs nil (every storeObs
// method is a no-op on a nil receiver and reads no clock) must differ by at most 50% plus a fixed per-op
// allowance — a regression here means an instrument landed on the hot
// path doing real work (locking, map lookups, allocation) instead of
// the intended atomic adds.
func TestObsOverheadGate(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	s := newStore(t, "pentagon")
	data := randomFile(t, 8*blockSize*s.Code().DataSymbols(), 5)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	const iters = 100
	loop := func() time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := s.Get("f"); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// Interleave instrumented and bare runs and keep each side's best,
	// so drift (thermal, scheduler) hits both sides alike.
	saved := s.obs
	best := func(obs *storeObs) time.Duration {
		s.obs = obs
		b := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			if d := loop(); d < b {
				b = d
			}
		}
		return b
	}
	loop() // warm caches and pools before either side is timed
	on := best(saved)
	off := best(nil)
	s.obs = saved
	allowed := off + off/2 + iters*20*time.Microsecond
	if on > allowed {
		t.Errorf("instrumented get loop %v vs bare %v exceeds the overhead bound %v", on, off, allowed)
	}
}
