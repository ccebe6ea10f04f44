package hdfsraid

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// transcodeAndVerify moves f to codeName and checks byte identity and
// store health.
func transcodeAndVerify(t *testing.T, s *Store, want []byte, codeName string) TranscodeReport {
	t.Helper()
	rep, err := s.Transcode("f", codeName)
	if err != nil {
		t.Fatal(err)
	}
	if code, ok := s.FileCode("f"); !ok || code != codeName {
		t.Fatalf("FileCode after transcode = %q, %v", code, ok)
	}
	got, err := s.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes differ after transcode to %s", codeName)
	}
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.Healthy() {
		t.Fatalf("store unhealthy after transcode to %s: %+v", codeName, fsck)
	}
	return rep
}

func TestTranscodeRoundTrips(t *testing.T) {
	// Cold RS up to each hot code and back, byte-identical throughout.
	for _, hot := range []string{"pentagon", "heptagon", "heptagon-local", "2-rep", "3-rep"} {
		t.Run("rs-14-10_to_"+hot, func(t *testing.T) {
			s := newStore(t, "rs-14-10")
			want := randomFile(t, 3*blockSize*10+17, 30)
			if err := s.Put("f", want); err != nil {
				t.Fatal(err)
			}
			up := transcodeAndVerify(t, s, want, hot)
			if up.BlocksWritten == 0 || up.BlocksRemoved == 0 || up.Stripes == 0 {
				t.Fatalf("empty promote report: %+v", up)
			}
			down := transcodeAndVerify(t, s, want, "rs-14-10")
			if down.BlocksWritten == 0 {
				t.Fatalf("empty demote report: %+v", down)
			}
		})
	}
}

func TestTranscodeReportAccounting(t *testing.T) {
	s := newStore(t, "rs-9-6")
	// Exactly 2 RS(9,6) stripes: 12 data blocks.
	want := randomFile(t, 12*blockSize, 31)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	cost, err := s.TranscodeExtentCost("f", 0, "pentagon")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Transcode("f", "pentagon")
	if err != nil {
		t.Fatal(err)
	}
	// 12 data blocks read; ceil(12/9)=2 pentagon stripes: a full one at
	// 20 physical replicas plus a shortened one holding 3 data symbols
	// and the parity, 4 symbols x 2 replicas = 8 (the other 6 data
	// symbols are known zeros, never stored); 2*9=18 old replicas
	// dropped.
	if rep.DataBlocksRead != 12 || rep.BlocksWritten != 28 || rep.BlocksRemoved != 18 || rep.Stripes != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if cost != rep.DataBlocksRead+rep.BlocksWritten {
		t.Fatalf("TranscodeExtentCost = %d, report says %d", cost, rep.DataBlocksRead+rep.BlocksWritten)
	}
	// The bill is the physical truth for unaligned sizes too, in both
	// directions: exactly the data blocks read (never the source's
	// stripe padding) plus the replicas the target layout stores, and
	// the move back removes exactly what the move out wrote.
	for _, k := range []int{6, 9} { // rs-9-6's k, then pentagon's
		for _, blocks := range []int{1, k - 1, k + 1, 2*k + 2} {
			name := fmt.Sprintf("g%d-%d", k, blocks)
			if err := s.Put(name, randomFile(t, blocks*blockSize-1, int64(blocks))); err != nil {
				t.Fatal(err)
			}
			var written int
			for _, hop := range [][2]string{{"rs-9-6", "pentagon"}, {"pentagon", "rs-9-6"}} {
				cost, err := s.TranscodeExtentCost(name, 0, hop[1])
				if err != nil {
					t.Fatal(err)
				}
				rep, err := s.Transcode(name, hop[1])
				if err != nil {
					t.Fatal(err)
				}
				if rep.DataBlocksRead != blocks || cost != rep.DataBlocksRead+rep.BlocksWritten {
					t.Fatalf("%d blocks %s->%s: cost %d, report %+v", blocks, hop[0], hop[1], cost, rep)
				}
				if hop[0] == "pentagon" && rep.BlocksRemoved != written {
					t.Fatalf("%d blocks: move back removed %d replicas, move out wrote %d", blocks, rep.BlocksRemoved, written)
				}
				written = rep.BlocksWritten
			}
		}
	}
}

func TestTranscodeSurvivesDegradedSource(t *testing.T) {
	// A dead node must not block a move: the transcoder reads through
	// the degraded path.
	s := newStore(t, "rs-14-10")
	want := randomFile(t, 2*blockSize*10, 32)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	if err := s.KillNode(0); err != nil { // data symbol 0's only copy
		t.Fatal(err)
	}
	rep := transcodeAndVerify(t, s, want, "pentagon")
	if rep.BlocksWritten == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestTranscodeNoOpAndErrors(t *testing.T) {
	s := newStore(t, "rs-14-10")
	want := randomFile(t, blockSize*10, 33)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Transcode("f", "rs-14-10")
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksWritten != 0 || rep.BlocksRemoved != 0 {
		t.Fatalf("no-op transcode moved blocks: %+v", rep)
	}
	if _, err := s.Transcode("nope", "pentagon"); err == nil {
		t.Fatal("transcoded a missing file")
	}
	if _, err := s.Transcode("f", "no-such-code"); err == nil {
		t.Fatal("transcoded to an unknown code")
	}
	if _, err := s.TranscodeExtentCost("f", 0, "no-such-code"); err == nil {
		t.Fatal("costed an unknown code")
	}
}

func TestTranscodePersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "rs-14-10", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := randomFile(t, blockSize*10, 34)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transcode("f", "heptagon-local"); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := s2.FileCode("f"); code != "heptagon-local" {
		t.Fatalf("reopened code = %q", code)
	}
	got, err := s2.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reopened tiered file wrong")
	}
	// The reopened store spans the wider code's nodes.
	if s2.Nodes() != 15 {
		t.Fatalf("Nodes = %d, want 15", s2.Nodes())
	}
}

// TestTranscodeMixedRepair kills nodes with files on two codes in the
// store and checks a single Repair call heals both.
func TestTranscodeMixedRepair(t *testing.T) {
	s := newStore(t, "rs-14-10")
	cold := randomFile(t, 2*blockSize*10, 35)
	hot := randomFile(t, 2*blockSize*10, 36)
	if err := s.Put("cold", cold); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("hot", hot); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transcode("hot", "pentagon"); err != nil {
		t.Fatal(err)
	}
	// Node 13 exists only for the RS file; node 1 hits both codes.
	for _, v := range []int{1, 13} {
		if err := s.KillNode(v); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Repair([]int{1, 13})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRestored == 0 {
		t.Fatalf("repair report = %+v", rep)
	}
	fsck, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.Healthy() {
		t.Fatalf("mixed store unhealthy after repair: %+v", fsck)
	}
	for name, want := range map[string][]byte{"cold": cold, "hot": hot} {
		got, err := s.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s wrong after mixed repair", name)
		}
	}
}

// TestTranscodeLeavesOneGeneration: a finished move has reclaimed the
// generation it superseded — every block file on disk carries the new
// one, there and back.
func TestTranscodeLeavesOneGeneration(t *testing.T) {
	s := newStore(t, "rs-9-6")
	if err := s.Put("f", randomFile(t, blockSize*6, 37)); err != nil {
		t.Fatal(err)
	}
	for gen, to := range []string{"", "pentagon", "rs-9-6"} {
		if gen > 0 {
			if rep, err := s.Transcode("f", to); err != nil || rep.BlocksRemoved == 0 {
				t.Fatalf("move to %s: %+v, %v", to, rep, err)
			}
		}
		for rel := range blockFiles(t, s) {
			if want := fmt.Sprintf(".g%d", gen); gen > 0 && !strings.HasSuffix(rel, want) || gen == 0 && strings.Contains(rel, ".g") {
				t.Fatalf("%s on disk at generation %d", rel, gen)
			}
		}
		assertExactLayout(t, s)
	}
}

func TestOnReadHook(t *testing.T) {
	s := newStore(t, "pentagon")
	if err := s.Put("f", randomFile(t, blockSize*9, 38)); err != nil {
		t.Fatal(err)
	}
	var reads []string
	s.OnReadExtent = func(name string, _ int) { reads = append(reads, name) }
	if _, err := s.Get("f"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadBlock("f", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("missing file read")
	}
	if len(reads) != 2 || reads[0] != "f" || reads[1] != "f" {
		t.Fatalf("hook calls = %v", reads)
	}
	// A transcode is not an access.
	if _, err := s.Transcode("f", "rs-14-10"); err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 {
		t.Fatalf("transcode fed the heat hook: %v", reads)
	}
}

// TestTranscodeConcurrentReads races client Gets against a transcode:
// the store field is never mutated mid-flight, so -race stays quiet
// and reads before/after the swap return identical bytes.
func TestTranscodeConcurrentReads(t *testing.T) {
	s := newStore(t, "rs-9-6")
	want := randomFile(t, 6*blockSize, 50)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	s.OnReadExtent = func(string, int) { hits.Add(1) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			data, err := s.Get("f")
			if err != nil {
				t.Errorf("concurrent read failed: %v", err)
				return
			}
			if !bytes.Equal(data, want) {
				t.Error("concurrent read returned wrong bytes")
				return
			}
		}
	}()
	if _, err := s.Transcode("f", "pentagon"); err != nil {
		t.Fatal(err)
	}
	<-done
	if hits.Load() == 0 {
		t.Fatal("reads concurrent with transcode never fed the hook")
	}
}

// TestRepairRejectsInvalidNode guards against a typoed node index
// reading as a successful no-op repair.
func TestRepairRejectsInvalidNode(t *testing.T) {
	s := newStore(t, "rs-14-10")
	if err := s.Put("f", randomFile(t, blockSize*10, 51)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 14, 99} {
		if _, err := s.Repair([]int{bad}); err == nil {
			t.Fatalf("repair of node %d succeeded", bad)
		}
	}
	// In range still works.
	if _, err := s.Repair([]int{0}); err != nil {
		t.Fatal(err)
	}
}

// TestTranscodeConcurrentSameFile races two transcodes of one file:
// serialization must leave it intact on one of the targets.
func TestTranscodeConcurrentSameFile(t *testing.T) {
	s := newStore(t, "rs-9-6")
	want := randomFile(t, 12*blockSize, 52)
	if err := s.Put("f", want); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for _, target := range []string{"pentagon", "2-rep"} {
		go func(code string) {
			_, err := s.Transcode("f", code)
			done <- err
		}(target)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	code, _ := s.FileCode("f")
	if code != "pentagon" && code != "2-rep" {
		t.Fatalf("file ended on %q", code)
	}
	got, err := s.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes corrupted by racing transcodes")
	}
	if fsck, err := s.Fsck(); err != nil || !fsck.Healthy() {
		t.Fatalf("unhealthy after racing transcodes: %+v, %v", fsck, err)
	}
}
