package tier

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
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

// oneShot returns the unbudgeted daemon `hdfscli tier rebalance` ticks
// once: no interval, no byte budget.
func oneShot(t *testing.T, target Target, p Policy, tr *Tracker) *Daemon {
	t.Helper()
	d, err := NewDaemon(target, p, tr, DaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d
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
			s.OnReadExtent = func(name string, ext int) { tr.TouchExtent(name, ext, 0) }
			d := oneShot(t, StoreTarget{s}, Policy{
				HotCode: hot, ColdCode: "rs-14-10", PromoteAt: 5, DemoteAt: 1,
			}, tr)

			// Cold and quiet: no moves.
			moves, err := d.Tick(0)
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
			moves, err = d.Tick(0)
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
			moves, err = d.Tick(700)
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
	tr.TouchExtentN("a-cool", 0, 6, 0)
	tr.TouchExtentN("m-blazing", 0, 30, 0)
	tr.TouchExtentN("z-warm", 0, 12, 0)
	// hot-already is cold and on the hot code: it demotes, last.
	moves, err := oneShot(t, ft, testPolicy(), tr).Tick(0)
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
	if _, err := NewDaemon(nil, Policy{}, NewTracker(1), DaemonConfig{}); err == nil {
		t.Fatal("accepted empty policy")
	}
	if _, err := NewDaemon(nil, testPolicy(), nil, DaemonConfig{}); err == nil {
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
	moved, err := ct.TranscodeExtent("f", 0, "pentagon", 7)
	if err != nil {
		t.Fatal(err)
	}
	// 20 blocks read + 3 pentagon stripes * 20 replicas written.
	if moved != 20+3*20 {
		t.Fatalf("transcode traffic = %d", moved)
	}
	if code, at, _ := ct.ExtentCode("f", 0); code != "pentagon" || at != 7 {
		t.Fatalf("code = %q, moved at %v; want pentagon at 7", code, at)
	}
	if moved, err = ct.TranscodeExtent("f", 0, "pentagon", 9); err != nil || moved != 0 {
		t.Fatalf("no-op transcode = %d, %v", moved, err)
	}
	if _, at, _ := ct.ExtentCode("f", 0); at != 7 {
		t.Fatalf("a no-op transcode moved the dwell to %v", at)
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

// TestDwellSurvivesReopen: the dwell guard reads each extent's last
// move time from the store's own move record, so a process that is
// killed — no save of any kind — and a fresh tracker and daemon
// over the reopened store still refuse to move the extent back before
// MinDwell has passed.
func TestDwellSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := hdfsraid.Create(dir, "rs-14-10", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("f", randomBytes(10*blockSize, 2)); err != nil {
		t.Fatal(err)
	}
	pol := Policy{HotCode: "pentagon", ColdCode: "rs-14-10",
		PromoteAt: 5, DemoteAt: 1, MinDwell: 100}
	tr := NewTracker(1e9)
	tr.TouchExtentN("f", 0, 10, 0)
	if moves, err := oneShot(t, StoreTarget{s}, pol, tr).Tick(10); err != nil || len(moves) != 1 || !moves[0].Promote {
		t.Fatalf("promote: %+v, %v", moves, err)
	}
	s2, err := hdfsraid.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The fresh tracker has no heat: f is cold and wants to demote.
	d := oneShot(t, StoreTarget{s2}, pol, NewTracker(1e9))
	if moves, err := d.Tick(50); err != nil || len(moves) != 0 {
		t.Fatalf("t=50, inside the dwell: moves %+v, %v; want none", moves, err)
	}
	if moves, err := d.Tick(111); err != nil || len(moves) != 1 || moves[0].Promote {
		t.Fatalf("t=111, past the dwell: moves %+v, %v; want the demotion", moves, err)
	}
}

// errorTarget fails the named file's transcode.
type errorTarget struct {
	*fakeTarget
	bad string
}

func (e *errorTarget) TranscodeExtent(name string, ext int, codeName string, at float64) (int, error) {
	if name == e.bad {
		return 0, fmt.Errorf("injected failure for %q", name)
	}
	return e.fakeTarget.TranscodeExtent(name, ext, codeName, at)
}

// TestTickStopsAtFirstError: a failing move ends the scan with its
// error; the hotter moves already made are reported and the colder ones
// are left for the next scan.
func TestTickStopsAtFirstError(t *testing.T) {
	ft := newFakeTarget(7, nil)
	tr := NewTracker(0)
	for i, heat := range []float64{10, 8, 6} {
		name := fmt.Sprintf("f%d", i)
		ft.codes[name] = "rs-14-10"
		tr.TouchExtentN(name, 0, heat, 0)
	}
	moves, err := oneShot(t, &errorTarget{fakeTarget: ft, bad: "f1"}, testPolicy(), tr).Tick(1)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if len(moves) != 1 || moves[0].Name != "f0" || fmt.Sprint(ft.calls) != "[f0]" {
		t.Fatalf("completed moves = %+v, calls %v; want f0 only", moves, ft.calls)
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

func (d *deletingTarget) TranscodeExtent(name string, ext int, codeName string, at float64) (int, error) {
	d.once.Do(func() { d.Store.Delete(d.victim) })
	return d.StoreTarget.TranscodeExtent(name, ext, codeName, at)
}

// TestDaemonSkipsVanishedFile: a DELETE that takes the hottest
// candidate after the scan decided to move it costs that one move —
// the colder ones still run and nothing is reported as an error — on
// the daemon, priced and unpriced, and on the one-shot rebalance's
// daemon, which has no interval. When the store reported the vanished
// file without wrapping ErrNotFound, the first such move ended the
// whole tick.
func TestDaemonSkipsVanishedFile(t *testing.T) {
	for _, mode := range []string{"daemon", "daemon-priced", "rebalance"} {
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
				tr.TouchExtentN(name, 0, float64(30-10*i), 0)
			}
			target := &deletingTarget{StoreTarget: StoreTarget{s}, victim: "hottest", atPrice: mode == "daemon-priced"}
			var cfg DaemonConfig
			if mode != "rebalance" {
				cfg.Interval = 1
			}
			if target.atPrice {
				cfg.BytesPerSec, cfg.Burst, cfg.BlockBytes = 1e9, 1e9, blockSize
			}
			d, err := NewDaemon(target, testPolicy(), tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			moves, err := d.Tick(1)
			if d.Err() != nil || d.Stats().Errors != 0 || d.Stats().Moves != 2 {
				t.Fatalf("daemon after the tick: Err %v, stats %+v", d.Err(), d.Stats())
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
