package tier

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// fakeTarget is an in-memory Target of single-extent files that records
// the order moves execute in and charges a fixed block cost per move. It
// keeps no move times, so its extents never dwell.
type fakeTarget struct {
	mu    sync.Mutex
	codes map[string]string
	cost  int
	calls []string
}

func newFakeTarget(cost int, files map[string]string) *fakeTarget {
	codes := make(map[string]string, len(files))
	for n, c := range files {
		codes[n] = c
	}
	return &fakeTarget{codes: codes, cost: cost}
}

func (f *fakeTarget) Files() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.codes))
	for n := range f.codes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (f *fakeTarget) Extents(name string) int {
	if _, _, ok := f.ExtentCode(name, 0); !ok {
		return 0
	}
	return 1
}

func (f *fakeTarget) ExtentCode(name string, ext int) (string, float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.codes[name]
	return c, 0, ok && ext == 0
}

func (f *fakeTarget) ExtentOf(name string, block int) int {
	if _, _, ok := f.ExtentCode(name, 0); !ok {
		return -1
	}
	return 0
}

func (f *fakeTarget) TranscodeExtent(name string, ext int, codeName string, at float64) (int, error) {
	if _, _, ok := f.ExtentCode(name, ext); !ok {
		return 0, fmt.Errorf("no such extent %q/%d", name, ext)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.codes[name] = codeName
	f.calls = append(f.calls, name)
	return f.cost, nil
}

func (f *fakeTarget) ExtentMoveCost(name string, ext int, codeName string) (int, error) {
	if code, _, _ := f.ExtentCode(name, ext); code == codeName {
		return 0, nil
	}
	return f.cost, nil
}

func TestTokenBucket(t *testing.T) {
	b := NewTokenBucket(10, 50) // 10/s, depth 50, starts full
	if !b.Take(0, 50) {
		t.Fatal("full bucket refused its burst")
	}
	if b.Take(0, 1) {
		t.Fatal("empty bucket granted tokens")
	}
	if b.Take(2, 25) { // 2s refills 20
		t.Fatal("bucket granted more than refilled")
	}
	if !b.Take(2, 20) {
		t.Fatal("bucket refused refilled tokens")
	}
	// Settling an overshoot drives the balance negative and delays the
	// next grant accordingly.
	b.Settle(2, 30)
	if got := b.Available(2); got != -30 {
		t.Fatalf("balance after overshoot = %v, want -30", got)
	}
	if b.Take(4, 1) { // only back to -10
		t.Fatal("negative bucket granted tokens")
	}
	if !b.Take(8, 20) { // back to +30
		t.Fatal("recovered bucket refused tokens")
	}
	// Refill never exceeds the burst, and time never runs backward.
	b.Settle(1000, 0)
	if got := b.Available(999); got != 50 {
		t.Fatalf("capped balance = %v, want 50", got)
	}
}

func TestNewDaemonValidation(t *testing.T) {
	ft, tr := newFakeTarget(1, nil), NewTracker(100)
	bad := []DaemonConfig{
		{Interval: -1},
		{Interval: 1, BytesPerSec: -1},
		{Interval: 1, BytesPerSec: 100}, // rate limit without BlockBytes
	}
	for _, cfg := range bad {
		if _, err := NewDaemon(ft, testPolicy(), tr, cfg); err == nil {
			t.Fatalf("accepted config %+v", cfg)
		}
	}
	if _, err := NewDaemon(ft, testPolicy(), tr, DaemonConfig{Interval: 1, BytesPerSec: 100, BlockBytes: 1}); err != nil {
		t.Fatal(err)
	}
	// A one-shot daemon needs no interval until something schedules it.
	d, err := NewDaemon(ft, testPolicy(), tr, DaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		d.Stop()
		t.Fatal("started a daemon without an interval")
	}
}

// TestDaemonHotFirstBudget drives three promotions through a budget
// that admits exactly one move per tick: the daemon must take them in
// heat order, deferring — not dropping — the rest.
func TestDaemonHotFirstBudget(t *testing.T) {
	ft := newFakeTarget(10, map[string]string{
		"cool": "rs-14-10", "warm": "rs-14-10", "blazing": "rs-14-10",
	})
	tr := NewTracker(0) // no decay: heat is the access count
	tr.TouchExtentN("cool", 0, 10, 0)
	tr.TouchExtentN("warm", 0, 20, 0)
	tr.TouchExtentN("blazing", 0, 30, 0)
	// One move costs 10 blocks * 1 byte = 10 bytes; 1 B/s over a 10 s
	// interval refills exactly one move, and the burst holds just one.
	d, err := NewDaemon(ft, testPolicy(), tr, DaemonConfig{Interval: 10, BytesPerSec: 1, Burst: 10, BlockBytes: 1})
	if err != nil {
		t.Fatal(err)
	}

	moves, err := d.Tick(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].Name != "blazing" {
		t.Fatalf("tick 1 moved %+v, want blazing only", moves)
	}
	if st := d.Stats(); st.Deferred != 2 {
		t.Fatalf("tick 1 stats = %+v, want 2 deferred", st)
	}
	moves, err = d.Tick(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].Name != "warm" {
		t.Fatalf("tick 2 moved %+v, want warm only", moves)
	}
	moves, err = d.Tick(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].Name != "cool" {
		t.Fatalf("tick 3 moved %+v, want cool only", moves)
	}
	if ft.calls[0] != "blazing" || ft.calls[1] != "warm" || ft.calls[2] != "cool" {
		t.Fatalf("execution order = %v", ft.calls)
	}
	st := d.Stats()
	if st.Moves != 3 || st.Promotions != 3 || st.BytesMoved != 30 {
		t.Fatalf("final stats = %+v", st)
	}
}

// TestDaemonOverBurstMove: a move costing more than the bucket depth
// must not starve — it is admitted from a full bucket into debt, and
// the refill rate paces the next admission.
func TestDaemonOverBurstMove(t *testing.T) {
	ft := newFakeTarget(100, map[string]string{"big": "rs-14-10", "big2": "rs-14-10"})
	tr := NewTracker(0)
	tr.TouchExtentN("big", 0, 20, 0)
	tr.TouchExtentN("big2", 0, 10, 0)
	// One move costs 100 bytes; the bucket holds only 10.
	d, err := NewDaemon(ft, testPolicy(), tr, DaemonConfig{Interval: 10, BytesPerSec: 1, Burst: 10, BlockBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	moves, err := d.Tick(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].Name != "big" {
		t.Fatalf("tick 1 = %+v, want the hottest oversized move", moves)
	}
	// The admission left 90 bytes of debt; at 1 B/s the bucket is not
	// full again (balance -90 -> +10) until t=110, so scans before
	// then defer the next oversized move.
	for _, now := range []float64{20, 60, 105} {
		if moves, err = d.Tick(now); err != nil || len(moves) != 0 {
			t.Fatalf("t=%v: moved %+v during debt repayment, %v", now, moves, err)
		}
	}
	if moves, err = d.Tick(110); err != nil || len(moves) != 1 || moves[0].Name != "big2" {
		t.Fatalf("t=110: moves = %+v, %v; want big2 admitted from refilled bucket", moves, err)
	}
}

// TestDaemonUnpacedWithoutBudget: with no rate limit a move is admitted
// unpriced and OnMove sees it at the tick's clock, where the simulator
// charges its transfer to the network at once.
func TestDaemonUnpacedWithoutBudget(t *testing.T) {
	ft := newFakeTarget(10, map[string]string{"a": "rs-14-10"})
	tr := NewTracker(0)
	tr.TouchExtentN("a", 0, 10, 0)
	d, err := NewDaemon(ft, testPolicy(), tr, DaemonConfig{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []MoveResult
	var at []float64
	d.OnMove = func(mv MoveResult, now float64) {
		got, at = append(got, mv), append(at, now)
	}
	if _, err := d.Tick(3); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "a" || got[0].BlocksMoved != 10 || at[0] != 3 {
		t.Fatalf("moves = %+v at %v, want a's 10 blocks at t=3", got, at)
	}
}

// TestDaemonUnlimited checks that without a rate limit a single tick
// drains the whole backlog.
func TestDaemonUnlimited(t *testing.T) {
	ft := newFakeTarget(10, map[string]string{"a": "rs-14-10", "b": "rs-14-10"})
	tr := NewTracker(0)
	tr.TouchExtentN("a", 0, 10, 0)
	tr.TouchExtentN("b", 0, 10, 0)
	d, err := NewDaemon(ft, testPolicy(), tr, DaemonConfig{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	moves, err := d.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 2 || d.Stats().Deferred != 0 {
		t.Fatalf("moves = %+v, stats = %+v", moves, d.Stats())
	}
}

// TestDaemonStartStop runs the daemon on the wall clock with a tiny
// interval and checks clean start/stop semantics.
func TestDaemonStartStop(t *testing.T) {
	ft := newFakeTarget(1, map[string]string{"f": "rs-14-10"})
	tr := NewTracker(0)
	tr.TouchExtentN("f", 0, 10, 0)
	d, err := NewDaemon(ft, testPolicy(), tr, DaemonConfig{Interval: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats().Ticks == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	d.Stop() // idempotent
	st := d.Stats()
	if st.Ticks == 0 {
		t.Fatal("daemon never ticked")
	}
	if code, _, _ := ft.ExtentCode("f", 0); code != "pentagon" {
		t.Fatalf("background daemon never promoted: %q", code)
	}
	// A stopped daemon can be restarted.
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.Stop()
}

// TestDaemonBudgetInSim is the acceptance check: replaying a Zipf
// trace against the simulated cluster, the daemon's cumulative
// transcode traffic never exceeds burst + rate*t at any point in
// virtual time, yet moves still happen (deferred, not dropped).
func TestDaemonBudgetInSim(t *testing.T) {
	const (
		files      = 30
		blocks     = 10
		blockBytes = 1 << 20
		rate       = 40 * blockBytes // 40 block-units of budget per second
		burst      = 80 * blockBytes
		interval   = 5.0
	)
	ct := NewClusterTarget(30, blocks, rand.New(rand.NewSource(7)))
	for i := 0; i < files; i++ {
		if err := ct.AddFile(workload.TraceFileName(i), "rs-14-10"); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewDaemon(ct, Policy{
		HotCode: "pentagon", ColdCode: "rs-14-10", PromoteAt: 4, DemoteAt: 1,
	}, NewTracker(60), DaemonConfig{
		Interval: interval, BytesPerSec: rate, Burst: burst, BlockBytes: blockBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cum float64
	d.OnMove = func(mv MoveResult, now float64) {
		cum += float64(mv.BlocksMoved * blockBytes)
		if limit := burst + rate*now; cum > limit+1e-6 {
			t.Fatalf("budget exceeded at t=%.1f: %.0f bytes moved, limit %.0f", now, cum, limit)
		}
	}
	trace, err := workload.ZipfTrace(workload.TraceConfig{
		Files: files, Accesses: 4000, ZipfS: 1.3, Rate: 20, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(sim.NewEngine(), trace, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Promotions == 0 {
		t.Fatalf("budgeted daemon never promoted: %+v", stats)
	}
	if stats.Deferred == 0 {
		t.Fatalf("budget never bit (raise trace pressure): %+v", stats)
	}
	if got := d.Stats().BytesMoved; got != cum {
		t.Fatalf("stats bytes %v != observed %v", got, cum)
	}
}
