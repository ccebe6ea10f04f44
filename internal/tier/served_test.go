package tier_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
	"repro/internal/tier"
	"repro/internal/tier/accesslog"
)

// TestServedHeatLogStaysBounded: a serving root folds its heat log
// while it runs. Thousands of reads through one shard, with the
// checkpoint trigger lowered to a few KiB, leave a log no longer than
// the trigger plus one batch — at the parent commit nothing was folded
// before Close and the log grew by ~46 B per read — and the heat, live
// and after a kill (no Close, so no final compaction), is what the
// same reads add up to without any compaction.
func TestServedHeatLogStaysBounded(t *testing.T) {
	const floor, reads = 4 << 10, 3000
	defer tier.SetCheckpointFloor(floor)()
	root := t.TempDir()
	if err := serve.CreateShards(root, "rs-9-6", 4096, 0, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.Open(root, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	data := bytes.Repeat([]byte("heat"), 3000)
	if err := srv.Put("hot.bin", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(root, "shard-00", "tier-heat.log")
	var longest int64
	for i := 0; i < reads; i++ {
		if got, err := srv.Get("hot.bin"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get %d: %v", i, err)
		}
		if fi, err := os.Stat(logPath); err != nil {
			t.Fatal(err)
		} else if fi.Size() > longest {
			longest = fi.Size()
		}
	}
	// One batch is at most 8 KiB of payload plus its frame headers.
	if longest > floor+12<<10 {
		t.Fatalf("the heat log reached %d bytes under a %d-byte checkpoint trigger", longest, floor)
	}
	c := srv.Stats().Counters
	if c["accesslog_compactions_total"] < 5 || c["accesslog_appends_total"] != reads {
		t.Fatalf("%d compactions over %d appends, want several over %d",
			c["accesslog_compactions_total"], c["accesslog_appends_total"], reads)
	}
	// What a kill now would leave: the flushed part of the heat. The
	// reads took far less than the one-day half-life, so the reference
	// — the same touches never compacted — is their count (time 0 reads
	// every counter as of its last touch).
	hl, err := tier.OpenHeatLog(filepath.Join(root, "shard-00"), 24*3600, accesslog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hl.Close()
	flushed := float64(c["accesslog_flush_records_total"])
	if got := hl.Tracker().Heat("hot.bin", 0); math.Abs(got-flushed) > 1e-3*flushed || flushed < reads-300 {
		t.Fatalf("durable heat = %v, want the %v flushed of %d touches", got, flushed, reads)
	}
}
