package tier

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	_ "repro/internal/code/heptlocal"
	_ "repro/internal/code/polygon"
	_ "repro/internal/code/replication"
	_ "repro/internal/code/rs"
	"repro/internal/hdfsraid"
)

const blockSize = 1 << 10

func randomBytes(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestManagerPromoteDemoteOnDisk is the acceptance scenario: a store
// created with RS has a file promoted to a hot double-replication code
// by heat and demoted back when it cools, byte-identical throughout.
func TestManagerPromoteDemoteOnDisk(t *testing.T) {
	for _, hot := range []string{"pentagon", "heptagon-local", "2-rep"} {
		t.Run(hot, func(t *testing.T) {
			s, err := hdfsraid.Create(t.TempDir(), "rs-14-10", blockSize)
			if err != nil {
				t.Fatal(err)
			}
			want := randomBytes(25*blockSize, 1)
			if err := s.Put("f", want); err != nil {
				t.Fatal(err)
			}
			tr := NewTracker(100)
			m, err := NewManager(StoreTarget{s}, Policy{
				HotCode: hot, ColdCode: "rs-14-10", PromoteAt: 5, DemoteAt: 1,
			}, tr)
			if err != nil {
				t.Fatal(err)
			}
			s.OnRead = func(name string) { m.OnRead(name, 0) }

			// Cold and quiet: no moves.
			moves, err := m.Rebalance(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(moves) != 0 {
				t.Fatalf("idle rebalance moved: %+v", moves)
			}

			// Six reads make it hot; the next rebalance promotes.
			for i := 0; i < 6; i++ {
				got, err := s.Get("f")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("pre-promotion read wrong")
				}
			}
			moves, err = m.Rebalance(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(moves) != 1 || !moves[0].Promote || moves[0].To != hot {
				t.Fatalf("promotion moves = %+v", moves)
			}
			if moves[0].BlocksMoved <= 0 {
				t.Fatalf("promotion reported no traffic: %+v", moves[0])
			}
			if code, _ := s.FileCode("f"); code != hot {
				t.Fatalf("file code after promote = %q", code)
			}
			got, err := s.Get("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("bytes changed across promotion")
			}
			if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() {
				t.Fatalf("unhealthy after promote: %+v, %v", fsck, err)
			}

			// Seven half-lives later the file has cooled: demote.
			moves, err = m.Rebalance(700)
			if err != nil {
				t.Fatal(err)
			}
			if len(moves) != 1 || moves[0].Promote || moves[0].To != "rs-14-10" {
				t.Fatalf("demotion moves = %+v", moves)
			}
			if code, _ := s.FileCode("f"); code != "rs-14-10" {
				t.Fatalf("file code after demote = %q", code)
			}
			got, err = s.Get("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("bytes changed across demotion")
			}
		})
	}
}

// TestRebalanceHotFilesFirst is the regression test for move
// ordering: when one pass wants several transcodes, the hottest file
// must move first, so an error or budget cutoff mid-pass strands only
// the coldest candidates (ROADMAP "tiering-aware repair scheduling").
func TestRebalanceHotFilesFirst(t *testing.T) {
	ft := newFakeTarget(1, map[string]string{
		"a-cool": "rs-14-10", "m-blazing": "rs-14-10", "z-warm": "rs-14-10",
		"hot-already": "pentagon",
	})
	tr := NewTracker(0)
	tr.TouchN("a-cool", 6, 0)
	tr.TouchN("m-blazing", 30, 0)
	tr.TouchN("z-warm", 12, 0)
	// hot-already is cold and on the hot code: it demotes, last.
	m, err := NewManager(ft, testPolicy(), tr)
	if err != nil {
		t.Fatal(err)
	}
	moves, err := m.Rebalance(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"m-blazing", "z-warm", "a-cool", "hot-already"}
	if len(moves) != len(want) {
		t.Fatalf("moves = %+v, want %d", moves, len(want))
	}
	for i, name := range want {
		if ft.calls[i] != name {
			t.Fatalf("execution order = %v, want %v", ft.calls, want)
		}
		if moves[i].Name != name {
			t.Fatalf("reported order = %+v, want %v", moves, want)
		}
	}
}

func TestManagerRejectsBadPolicy(t *testing.T) {
	if _, err := NewManager(nil, Policy{}, NewTracker(1)); err == nil {
		t.Fatal("accepted empty policy")
	}
	if _, err := NewManager(nil, testPolicy(), nil); err == nil {
		t.Fatal("accepted nil tracker")
	}
}

func TestClusterTargetTranscode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ct := NewClusterTarget(30, 20, rng)
	if err := ct.AddFile("f", "rs-14-10"); err != nil {
		t.Fatal(err)
	}
	if err := ct.AddFile("f", "rs-14-10"); err == nil {
		t.Fatal("duplicate placement accepted")
	}
	phys, data := ct.StorageBlocks()
	if data != 20 || phys != 2*14 { // 2 stripes of (14,10)
		t.Fatalf("rs storage = %d/%d", phys, data)
	}
	moved, err := ct.TranscodeExtent("f", 0, "pentagon")
	if err != nil {
		t.Fatal(err)
	}
	// 20 blocks read + 3 pentagon stripes * 20 replicas written.
	if moved != 20+3*20 {
		t.Fatalf("transcode traffic = %d", moved)
	}
	if code, _ := ct.ExtentCode("f", 0); code != "pentagon" {
		t.Fatalf("code = %q", code)
	}
	if moved, err = ct.TranscodeExtent("f", 0, "pentagon"); err != nil || moved != 0 {
		t.Fatalf("no-op transcode = %d, %v", moved, err)
	}
}

func TestClusterTargetReadCost(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ct := NewClusterTarget(30, 10, rng)
	if err := ct.AddFile("f", "rs-14-10"); err != nil {
		t.Fatal(err)
	}
	up := func(int) bool { return false }
	if c, err := ct.ReadCostAt("f", -1, up); err != nil || c != 0 {
		t.Fatalf("healthy read cost = %d, %v", c, err)
	}
	// Everything down except ten survivors still decodes, at k fetches
	// for a single-copy RS block whose node is dead.
	if _, err := ct.ReadCostAt("nope", -1, up); err == nil {
		t.Fatal("read of unknown file")
	}
}

func TestClusterTargetReadCostAllDown(t *testing.T) {
	ct := NewClusterTarget(20, 10, rand.New(rand.NewSource(5)))
	if err := ct.AddFile("f", "rs-9-6"); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.ReadCostAt("f", -1, func(int) bool { return true }); err == nil {
		t.Fatal("read with every node down succeeded")
	}
}

func TestManagerLastMovesRoundTrip(t *testing.T) {
	s, err := hdfsraid.Create(t.TempDir(), "rs-14-10", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("f", randomBytes(10*blockSize, 2)); err != nil {
		t.Fatal(err)
	}
	pol := Policy{HotCode: "pentagon", ColdCode: "rs-14-10",
		PromoteAt: 5, DemoteAt: 1, MinDwell: 100}
	tr := NewTracker(1e9)
	tr.TouchN("f", 10, 0)
	m1, err := NewManager(StoreTarget{s}, pol, tr)
	if err != nil {
		t.Fatal(err)
	}
	if moves, err := m1.Rebalance(10); err != nil || len(moves) != 1 {
		t.Fatalf("promote: %+v, %v", moves, err)
	}
	// A fresh manager seeded with the old one's move times keeps the
	// dwell guard: the file cooled but may not demote yet.
	m2, err := NewManager(StoreTarget{s}, pol, NewTracker(1e9))
	if err != nil {
		t.Fatal(err)
	}
	m2.RestoreLastMoves(m1.lastMove)
	if moves, err := m2.Rebalance(50); err != nil || len(moves) != 0 {
		t.Fatalf("dwell not honored after restore: %+v, %v", moves, err)
	}
	// Without the restore the same rebalance would thrash.
	m3, err := NewManager(StoreTarget{s}, pol, NewTracker(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if moves, err := m3.Rebalance(50); err != nil || len(moves) != 1 {
		t.Fatalf("unrestored manager should demote: %+v, %v", moves, err)
	}
}

func TestManagerLastMovesFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "moves.json")
	ct := NewClusterTarget(30, 20, rand.New(rand.NewSource(6)))
	if err := ct.AddFile("f", "rs-14-10"); err != nil {
		t.Fatal(err)
	}
	pol := Policy{HotCode: "pentagon", ColdCode: "rs-14-10",
		PromoteAt: 5, DemoteAt: 1, MinDwell: 100}
	tr := NewTracker(1e9)
	tr.TouchN("f", 10, 0)
	m1, err := NewManager(ct, pol, tr)
	if err != nil {
		t.Fatal(err)
	}
	if moves, err := m1.Rebalance(10); err != nil || len(moves) != 1 {
		t.Fatalf("promote: %+v, %v", moves, err)
	}
	if err := m1.SaveLastMoves(path); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(ct, pol, NewTracker(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadLastMoves(path); err != nil {
		t.Fatal(err)
	}
	if moves, err := m2.Rebalance(50); err != nil || len(moves) != 0 {
		t.Fatalf("dwell not honored after file round trip: %+v, %v", moves, err)
	}
	// Missing file is an empty history, not an error.
	m3, err := NewManager(ct, pol, NewTracker(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.LoadLastMoves(filepath.Join(t.TempDir(), "none.json")); err != nil {
		t.Fatal(err)
	}
}

// barrierTarget is a fakeTarget whose moves block until `width` of
// them are in flight simultaneously — it deadlocks (and the test times
// out) unless the manager genuinely runs that many moves concurrently.
type barrierTarget struct {
	*fakeTarget
	entered atomic.Int64
	width   int64
	ready   chan struct{}
}

func (b *barrierTarget) TranscodeExtent(name string, ext int, codeName string) (int, error) {
	if b.entered.Add(1) == b.width {
		close(b.ready)
	}
	<-b.ready
	return b.fakeTarget.TranscodeExtent(name, ext, codeName)
}

// TestRebalanceParallelMoves: with MoveWorkers set, a rebalance pass
// fans its moves (always of distinct files) out to a worker pool; the
// barrier target proves all of them are in flight at once.
func TestRebalanceParallelMoves(t *testing.T) {
	const n = 3
	bt := &barrierTarget{fakeTarget: newFakeTarget(7, nil), width: n, ready: make(chan struct{})}
	tr := NewTracker(0)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		bt.codes[name] = "rs-14-10"
		tr.TouchN(name, float64(10+i), 0)
	}
	m, err := NewManager(bt, testPolicy(), tr)
	if err != nil {
		t.Fatal(err)
	}
	m.MoveWorkers = n
	moves, err := m.Rebalance(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != n {
		t.Fatalf("moves = %+v, want %d", moves, n)
	}
	for _, name := range bt.Files() {
		if code, _ := bt.ExtentCode(name, 0); code != "pentagon" {
			t.Fatalf("%s on %q after parallel rebalance", name, code)
		}
	}
	// The dwell guard saw every move.
	if got := m.lastMove; len(got) != n {
		t.Fatalf("lastMove = %v, want %d entries", got, n)
	}
}

// errorTarget fails the named file's transcode.
type errorTarget struct {
	*barrierTarget
	bad string
}

func (e *errorTarget) TranscodeExtent(name string, ext int, codeName string) (int, error) {
	if name == e.bad {
		return 0, fmt.Errorf("injected failure for %q", name)
	}
	return e.barrierTarget.TranscodeExtent(name, ext, codeName)
}

// TestRebalanceParallelError: a failing move surfaces its error after
// the pool drains, with the successful moves still reported. Two
// workers run the two hottest moves through the barrier; the cold
// failing move is only pulled after they complete, so the outcome is
// deterministic.
func TestRebalanceParallelError(t *testing.T) {
	bt := &barrierTarget{fakeTarget: newFakeTarget(7, nil), width: 2, ready: make(chan struct{})}
	et := &errorTarget{barrierTarget: bt, bad: "f2"}
	tr := NewTracker(0)
	for i, heat := range []float64{10, 10, 5} {
		name := fmt.Sprintf("f%d", i)
		bt.codes[name] = "rs-14-10"
		tr.TouchN(name, heat, 0)
	}
	m, err := NewManager(et, testPolicy(), tr)
	if err != nil {
		t.Fatal(err)
	}
	m.MoveWorkers = 2
	moves, err := m.Rebalance(1)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if len(moves) != 2 {
		t.Fatalf("completed moves = %+v, want 2", moves)
	}
}

// deletingTarget is a store target on which a DELETE of victim lands
// between the scan that decided the moves and the first one's turn —
// at its pricing, or at the move itself.
type deletingTarget struct {
	StoreTarget
	victim  string
	atPrice bool
	once    sync.Once
}

func (d *deletingTarget) ExtentMoveCost(name string, ext int, codeName string) (int, error) {
	if d.atPrice {
		d.once.Do(func() { d.Store.Delete(d.victim) })
	}
	return d.StoreTarget.ExtentMoveCost(name, ext, codeName)
}

func (d *deletingTarget) TranscodeExtent(name string, ext int, codeName string) (int, error) {
	d.once.Do(func() { d.Store.Delete(d.victim) })
	return d.StoreTarget.TranscodeExtent(name, ext, codeName)
}

// TestDaemonSkipsVanishedFile: a DELETE that takes the hottest
// candidate after the scan decided to move it costs that one move —
// the colder ones still run and nothing is reported as an error — on
// the daemon (priced and unpriced) and on both Rebalance paths. At the
// parent commit the store reported the vanished file without wrapping
// ErrNotFound and the first such move ended the whole tick.
func TestDaemonSkipsVanishedFile(t *testing.T) {
	for _, mode := range []string{"daemon", "daemon-priced", "rebalance", "rebalance-parallel"} {
		t.Run(mode, func(t *testing.T) {
			s, err := hdfsraid.Create(t.TempDir(), "rs-14-10", blockSize)
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTracker(0)
			for i, name := range []string{"hottest", "warm", "warmish"} {
				if err := s.Put(name, randomBytes(10*blockSize, int64(i))); err != nil {
					t.Fatal(err)
				}
				tr.TouchN(name, float64(30-10*i), 0)
			}
			target := &deletingTarget{StoreTarget: StoreTarget{s}, victim: "hottest", atPrice: mode == "daemon-priced"}
			m, err := NewManager(target, testPolicy(), tr)
			if err != nil {
				t.Fatal(err)
			}
			var moves []MoveResult
			switch mode {
			case "rebalance-parallel":
				m.MoveWorkers = 2
				fallthrough
			case "rebalance":
				moves, err = m.Rebalance(1)
			default:
				cfg := DaemonConfig{Interval: 1}
				if target.atPrice {
					cfg.BytesPerSec, cfg.Burst, cfg.BlockBytes = 1e9, 1e9, blockSize
				}
				d, derr := NewDaemon(m, cfg)
				if derr != nil {
					t.Fatal(derr)
				}
				moves, err = d.Tick(1)
				if d.Err() != nil || d.Stats().Errors != 0 || d.Stats().Moves != 2 {
					t.Fatalf("daemon after the tick: Err %v, stats %+v", d.Err(), d.Stats())
				}
			}
			if err != nil || len(moves) != 2 {
				t.Fatalf("moves = %+v, %v; want the two colder files moved and no error", moves, err)
			}
			if _, ok := s.Info("hottest"); ok {
				t.Fatal("the DELETE never landed")
			}
			for _, name := range []string{"warm", "warmish"} {
				if code, _ := s.FileCode(name); code != "pentagon" {
					t.Fatalf("%s on %q, want promoted", name, code)
				}
			}
		})
	}
}
