package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles hdfscli into a temp dir and returns the binary
// path; the CLI tests exercise the real process boundary (exit codes,
// stderr shape, the persisted metrics snapshot).
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hdfscli")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building hdfscli: %v\n%s", err, out)
	}
	return bin
}

// run executes the CLI against a store and returns stdout+stderr,
// failing the test on a nonzero exit.
func run(t *testing.T, bin, store string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-store", store}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("hdfscli %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestMissingStoreDiagnosis: pointing any command at a directory with
// no store must exit 1 with a single-line diagnosis, never a panic or
// a raw stack trace.
func TestMissingStoreDiagnosis(t *testing.T) {
	bin := buildCLI(t)
	missing := filepath.Join(t.TempDir(), "nosuch")
	cmd := exec.Command(bin, "-store", missing, "ls")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want code 1", err)
	}
	msg := stderr.String()
	if got := strings.Count(msg, "\n"); got != 1 {
		t.Errorf("stderr is %d lines, want exactly 1:\n%s", got, msg)
	}
	if !strings.Contains(msg, "no store at") {
		t.Errorf("stderr lacks the missing-store diagnosis: %q", msg)
	}
	for _, bad := range []string{"panic", "goroutine"} {
		if strings.Contains(msg, bad) {
			t.Errorf("stderr contains %q:\n%s", bad, msg)
		}
	}
}

// TestStatsAfterReplay drives the acceptance scenario through the real
// binary — create, put, intact get, extent move, two node failures,
// degraded get, repair — and asserts `stats -json` reports nonzero
// read-latency histogram counts, the degraded-read counter, the
// bytes-moved counter, and the extent move's three journal events.
func TestStatsAfterReplay(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(42)).Read(data)
	src := filepath.Join(dir, "data.bin")
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}

	run(t, bin, store, "create", "-code", "pentagon", "-blocksize", "4096", "-extentblocks", "4")
	// The residue of a metrics flush that died mid-write must not stop
	// the commands below from succeeding and accumulating.
	metricsTmp := filepath.Join(store, "obs-metrics.json.tmp")
	if err := os.WriteFile(metricsTmp, []byte(`{"counters": {"store_by`), 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, bin, store, "put", src)
	if _, err := os.Stat(metricsTmp); !os.IsNotExist(err) {
		t.Fatalf("metrics temp file survives a command's flush: %v", err)
	}
	run(t, bin, store, "get", "data.bin", filepath.Join(dir, "out1.bin"))
	run(t, bin, store, "tier", "set", "-ext", "0", "data.bin", "rs-14-10")
	run(t, bin, store, "kill", "0", "1")
	run(t, bin, store, "get", "data.bin", filepath.Join(dir, "out2.bin"))
	run(t, bin, store, "repair", "0", "1")
	for _, out := range []string{"out1.bin", "out2.bin"} {
		got, err := os.ReadFile(filepath.Join(dir, out))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s does not match the source (err %v)", out, err)
		}
	}

	raw := run(t, bin, store, "stats", "-json")
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
		Traces map[string][]struct {
			Type string `json:"type"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(raw), &snap); err != nil {
		t.Fatalf("stats -json did not parse: %v\n%s", err, raw)
	}
	for _, h := range []string{"store_put_ns", "store_get_intact_ns", "store_get_degraded_ns"} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("histogram %s has zero observations", h)
		}
	}
	for _, c := range []string{"store_reads_degraded_total", "transcode_bytes_moved_total", "store_bytes_in_total"} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s is zero", c)
		}
	}
	if events := snap.Traces["journal"]; len(events) == 0 || events[0].Type != "moved" {
		t.Fatalf("journal trace = %+v, want the move's moved event:\n%s", events, raw)
	}

	// The human-readable form renders the same snapshot.
	text := run(t, bin, store, "stats")
	for _, want := range []string{"store_reads_degraded_total", "trace journal"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats text output lacks %q:\n%s", want, text)
		}
	}
}

// TestScrubCLI drives scrub through the real binary: latent corruption
// planted directly in a block file is found and healed (exit 0, heal
// counters persisted for stats), while corruption beyond the code's
// tolerance exits nonzero with an unrepairable diagnosis.
func TestScrubCLI(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	data := make([]byte, 6*4096) // rs-9-6: exactly one stripe
	rand.New(rand.NewSource(7)).Read(data)
	src := filepath.Join(dir, "data.bin")
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, bin, store, "create", "-code", "rs-9-6", "-blocksize", "4096")
	run(t, bin, store, "put", src)

	// flip plants a silent bit flip in the stored frame of one symbol
	// (rs-9-6 places symbol v's single replica on node v).
	flip := func(v int) {
		t.Helper()
		path := filepath.Join(store, fmt.Sprintf("node-%02d", v), fmt.Sprintf("data.bin.0.%d", v))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[0] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	flip(2)
	out := run(t, bin, store, "scrub")
	if !strings.Contains(out, "1 corrupt, 0 missing, 1 healed, 0 unrepairable") {
		t.Fatalf("scrub over one flipped block reported:\n%s", out)
	}
	if !strings.Contains(out, "full pass") || !strings.Contains(out, "captured bad frames") {
		t.Fatalf("scrub output lacks coverage/quarantine report:\n%s", out)
	}
	// The heal stuck: a second pass is clean and the bytes read back
	// exactly.
	out = run(t, bin, store, "scrub")
	if !strings.Contains(out, "0 corrupt, 0 missing, 0 healed, 0 unrepairable") {
		t.Fatalf("second scrub not clean:\n%s", out)
	}
	run(t, bin, store, "get", "data.bin", filepath.Join(dir, "out.bin"))
	if got, err := os.ReadFile(filepath.Join(dir, "out.bin")); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-heal get differs from source (err %v)", err)
	}
	text := run(t, bin, store, "stats")
	for _, want := range []string{"scrub_healed_total", "scrub_corrupt_found_total", "quarantine_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats lacks persisted scrub counter %q", want)
		}
	}

	// A budgeted run covers only part of the store and says so.
	out = run(t, bin, store, "scrub", "-budget", "0.004")
	if !strings.Contains(out, "partial pass") {
		t.Fatalf("4KB-budget scrub of a 9-block store claimed full coverage:\n%s", out)
	}

	// Four of nine blocks corrupt exceeds rs-9-6's tolerance of three:
	// scrub must exit nonzero and say why.
	for v := 0; v < 4; v++ {
		flip(v)
	}
	cmd := exec.Command(bin, "-store", store, "scrub")
	raw, err := cmd.CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("scrub over unrepairable corruption: err = %v, want exit 1\n%s", err, raw)
	}
	if !strings.Contains(string(raw), "unrepairable") {
		t.Fatalf("unrepairable scrub output lacks diagnosis:\n%s", raw)
	}
}

// TestFsckReportsOverhead: fsck prints what the layout stores per byte
// of file beside the code's nominal rate — a 2-block file on rs-9-6 is
// a shortened stripe of 2 data blocks + 3 parities, 2.5x, not the
// padded stripe's 4.5x.
func TestFsckReportsOverhead(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	src := filepath.Join(dir, "small.bin")
	if err := os.WriteFile(src, bytes.Repeat([]byte{7}, 2*4096), 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, bin, store, "create", "-code", "rs-9-6", "-blocksize", "4096")
	run(t, bin, store, "put", src)
	out := run(t, bin, store, "fsck")
	for _, want := range []string{"HEALTHY: 5 blocks, 0 missing, 0 corrupt, 0 orphans", "overhead: 2.500x stored", "rs-9-6 nominal 1.500x"} {
		if !strings.Contains(out, want) {
			t.Errorf("fsck output lacks %q:\n%s", want, out)
		}
	}
}

// TestTierDaemonScrubFlag: `tier daemon -scrub MB` trickle-verifies
// blocks during scans, heals what it finds, and reports the scrubbed
// volume in its shutdown summary.
func TestTierDaemonScrubFlag(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	data := make([]byte, 6*4096)
	rand.New(rand.NewSource(8)).Read(data)
	src := filepath.Join(dir, "data.bin")
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, bin, store, "create", "-code", "rs-9-6", "-blocksize", "4096")
	run(t, bin, store, "put", src)
	path := filepath.Join(store, "node-04", "data.bin.0.4")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	out := run(t, bin, store, "tier", "daemon",
		"-every", "0.05", "-scrub", "1", "-duration", "0.6")
	if !strings.Contains(out, "MB scrubbed") {
		t.Fatalf("daemon summary lacks scrub volume:\n%s", out)
	}
	// The trickle passes must have found and healed the flip: a
	// foreground scrub afterwards is clean.
	out = run(t, bin, store, "scrub")
	if !strings.Contains(out, "0 corrupt, 0 missing, 0 healed, 0 unrepairable") {
		t.Fatalf("store not clean after daemon trickle scrub:\n%s", out)
	}
}

// TestTierRebalanceCLI drives `tier rebalance` through the real binary:
// six gets heat a file past -promote and one run promotes it; a second
// run whose thresholds want it demoted moves nothing, because the
// promotion's manifest record carries its time and -dwell has not
// passed; without -dwell the same run demotes. The dwell needs no file
// of its own beside the store.
func TestTierRebalanceCLI(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	data := make([]byte, 5*4096)
	rand.New(rand.NewSource(9)).Read(data)
	src := filepath.Join(dir, "data.bin")
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, bin, store, "create", "-code", "rs-14-10", "-blocksize", "4096")
	run(t, bin, store, "put", src)
	for i := 0; i < 6; i++ {
		run(t, bin, store, "get", "data.bin", filepath.Join(dir, "out.bin"))
	}
	out := run(t, bin, store, "tier", "rebalance", "-promote", "5", "-demote", "1", "-dwell", "3600")
	if !strings.Contains(out, "promote data.bin[x0]: rs-14-10 -> pentagon") {
		t.Fatalf("first rebalance did not promote:\n%s", out)
	}
	demote := []string{"tier", "rebalance", "-promote", "1e9", "-demote", "1e8"}
	if out := run(t, bin, store, append(demote, "-dwell", "3600")...); out != "tiering stable: no moves\n" {
		t.Fatalf("rebalance inside the dwell:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(store, "tier-moves.json")); !os.IsNotExist(err) {
		t.Fatalf("tier-moves.json beside the store: %v", err)
	}
	if out := run(t, bin, store, demote...); !strings.Contains(out, "demote data.bin[x0]: pentagon -> rs-14-10") {
		t.Fatalf("rebalance without a dwell did not demote:\n%s", out)
	}
	run(t, bin, store, "get", "data.bin", filepath.Join(dir, "out.bin"))
	if got, err := os.ReadFile(filepath.Join(dir, "out.bin")); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("bytes changed across the moves (%v)", err)
	}
}
