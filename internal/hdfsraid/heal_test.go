package hdfsraid

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// corruptSym0 flips bits in the stored frame of data symbol 0, stripe
// 0 — rs-9-6 keeps a single replica per symbol on its symbol-numbered
// node, so the next read of that block must detect and route around it.
func corruptSym0(t *testing.T, s *Store) {
	t.Helper()
	if err := s.CorruptBlock(0, "f", 0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestReadHealsCorruptBlock is the acceptance path: a Get over a
// corrupt block serves the right bytes, captures the bad frame under
// .quarantine/, writes a repaired block back, and bumps the read_heal
// counter — so the second read is served fully intact. The extent
// store runs the same path over extent-qualified block names, which
// CorruptBlock must resolve like ReadBlockInto does.
func TestReadHealsCorruptBlock(t *testing.T) {
	t.Run("whole-file", func(t *testing.T) { testReadHealsCorruptBlock(t, newStore(t, "rs-9-6")) })
	t.Run("extents", func(t *testing.T) { testReadHealsCorruptBlock(t, newExtStore(t, "rs-9-6", 6)) })
}

func testReadHealsCorruptBlock(t *testing.T, s *Store) {
	data := randomFile(t, 2*blockSize*s.Code().DataSymbols(), 50)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	corruptSym0(t, s)

	got, err := s.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong bytes")
	}
	q, err := s.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 {
		t.Fatalf("quarantined frames = %v, want exactly one", q)
	}
	if got := s.obs.counters[cReadHeal].Value(); got < 1 {
		t.Fatalf("read_heal counter = %d, want >= 1", got)
	}
	if got := s.obs.counters[cQuarantine].Value(); got != 1 {
		t.Fatalf("quarantine counter = %d, want 1", got)
	}

	// The heal must have restored the replica on disk: everything is
	// fsck-clean and the next Get runs fully intact.
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.Healthy() {
		t.Fatalf("store not healthy after read heal: %+v", fsck)
	}
	before := s.obs.counters[cReadsDegraded].Value()
	if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("second read: err %v, bytes equal %v", err, bytes.Equal(got, data))
	}
	if after := s.obs.counters[cReadsDegraded].Value(); after != before {
		t.Fatal("second read still ran degraded; heal did not restore the replica")
	}
}

// TestReadBlockIntoHeals drives the single-block read path: the first
// ReadBlockInto of a corrupt symbol reconstructs through the plan and
// heals in place, so the second costs zero transfers.
func TestReadBlockIntoHeals(t *testing.T) {
	s := newStore(t, "rs-9-6")
	k := s.Code().DataSymbols()
	data := randomFile(t, blockSize*k, 51)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	corruptSym0(t, s)

	dst := make([]byte, blockSize)
	cost, err := s.ReadBlockInto(dst, "f", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("first read of corrupt block cost %d, want degraded (> 0)", cost)
	}
	if !bytes.Equal(dst, data[:blockSize]) {
		t.Fatal("degraded block read returned wrong bytes")
	}
	cost, err = s.ReadBlockInto(dst, "f", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("second read cost %d, want 0 (healed replica)", cost)
	}
	if !bytes.Equal(dst, data[:blockSize]) {
		t.Fatal("healed block read returned wrong bytes")
	}
	if got := s.obs.counters[cReadHeal].Value(); got != 1 {
		t.Fatalf("read_heal counter = %d, want 1", got)
	}
}

// TestHealKillPoints crashes the healer at each of its kill points —
// after the bad frame moved to quarantine but before the repaired
// block landed, and after the repaired temp was written but before its
// rename — and proves the block is never lost: a reopened store serves
// the file byte-exact, recovery sweeps any stray .heal temp, and the
// next read heals the replica for good.
func TestHealKillPoints(t *testing.T) {
	for _, point := range []string{"quarantined", "healwrite"} {
		t.Run(point, func(t *testing.T) {
			s := newStore(t, "rs-9-6")
			dir := s.root
			data := randomFile(t, 2*blockSize*s.Code().DataSymbols(), 52)
			if err := s.Put("f", data); err != nil {
				t.Fatal(err)
			}
			corruptSym0(t, s)
			killAt(s, point)
			// Reads swallow heal failures (the crash hook fires inside
			// the heal), so the read itself must still succeed.
			if got, err := s.Get("f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read during crashed heal: err %v", err)
			}

			// "Crash": reopen the store from disk. The replica is gone
			// (quarantined) or still being written, but the stripe
			// tolerates it, so nothing is lost.
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if point == "healwrite" {
				// The crashed heal left a .heal temp; recovery's orphan
				// sweep must have removed it.
				stray, err := filepath.Glob(filepath.Join(dir, "node-*", "*"+healSuffix+"*"))
				if err != nil {
					t.Fatal(err)
				}
				if len(stray) != 0 {
					t.Fatalf("stray heal temps survived recovery: %v", stray)
				}
			}
			if got, err := s2.Get("f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after crash: err %v", err)
			}
			// That read healed the missing replica; the store is whole.
			fsck, err := s2.Fsck()
			if err != nil {
				t.Fatal(err)
			}
			if !fsck.Healthy() {
				t.Fatalf("store not healthy after post-crash heal: %+v", fsck)
			}
		})
	}
}

// TestHealUnrepairableRestoresFrame: when a stripe has more failures
// than the code tolerates, healing must fail WITHOUT consuming the
// quarantined frame — the corrupt bytes stay on disk as evidence (and
// as input for a smarter future repair), and nothing is half-written.
func TestHealUnrepairableRestoresFrame(t *testing.T) {
	s := newStore(t, "rs-9-6")
	data := randomFile(t, blockSize*s.Code().DataSymbols(), 53)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	// rs-9-6 tolerates 3 erasures; corrupt 4 blocks of stripe 0.
	for v := 0; v < 4; v++ {
		if err := s.CorruptBlock(v, "f", 0, v); err != nil {
			t.Fatal(err)
		}
	}
	corrupted, err := os.ReadFile(s.blockPath(0, "f", 0, 0))
	if err != nil {
		t.Fatal(err)
	}

	fi := s.manifest.Files["f"]
	cc, err := s.codecByName(fi.Extents[0].Code)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.healBlock(cc, "f", fi, 0, 0, 0, 0, nil); err == nil {
		t.Fatal("healing an unrepairable stripe reported success")
	}
	// The frame must be back at its path, byte-identical, and the
	// quarantine directory empty.
	after, err := os.ReadFile(s.blockPath(0, "f", 0, 0))
	if err != nil {
		t.Fatalf("frame not restored after failed heal: %v", err)
	}
	if !bytes.Equal(after, corrupted) {
		t.Fatal("restored frame differs from the captured one")
	}
	if q, _ := s.Quarantined(); len(q) != 0 {
		t.Fatalf("failed heal left frames in quarantine: %v", q)
	}
}
