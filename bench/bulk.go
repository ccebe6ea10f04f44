package main

import (
	"bytes"
	"io"
	"math/rand"
	"syscall"
	"time"

	"repro/internal/serve"
)

// bulkRanges is how many ranged reads follow each whole-file read.
const bulkRanges = 16

// runBulk measures the in-process workload: one caller, closed loop, no
// HTTP, straight at the shard's store. Each round reads and verifies
// every file, moves extent 0 of every file to the hot code and half of
// them back, loses two nodes and repairs them, scrubs, fscks, then
// deletes and re-ingests everything; rounds repeat until the measured
// seconds are used up.
func runBulk(e *env, w *workload, dir string, opts runOpts) (*result, error) {
	res := newResult(w.name)
	data := newDataset(w)

	up, err := setUp(e, w, dir, data, opts)
	if err != nil {
		return nil, err
	}
	root := up.root
	res.e2e["setup_s"] = median(up.seconds)
	res.samples["setup_s"] = len(up.seconds)

	srv, err := serve.Open(root, serve.Config{})
	if err != nil {
		return nil, err
	}
	layers, err := bulkRounds(w, srv, root, data, opts, res)
	if err == nil {
		if opts.trace {
			var ru syscall.Rusage
			syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
			res.layers = layers
			// One caller in a closed loop has no schedule to fall behind.
			layers["gen.late_p99_ms"], layers["gen.backlog_max"] = 0, 0
			layers["proc.server_rss_peak_mb"] = float64(ru.Maxrss) / 1024
			layers["hdfsraid.manifest_bytes"] = float64(up.last.manifestBytes)
			statsLayers(srv.Stats(), res.layers)
		}
		err = inspect(e, w, srv, data, dir, opts, res)
	}
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// selfCPU is the CPU time, user and system, this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bulkRounds runs the timed rounds and the final read-back. It returns
// the rounds' per-layer metrics: tails, and everything that waits for
// the disk to flush.
func bulkRounds(w *workload, srv *serve.Server, root string, data *dataset, opts runOpts, res *result) (map[string]float64, error) {
	var none map[string]float64
	st := srv.Shard(0)
	rng := rand.New(rand.NewSource(opts.seed))
	rangeBuf := make([]byte, w.rangeBytes)
	ext0 := w.extentBlocks * w.blockSize
	if ext0 > w.fileBytes {
		ext0 = w.fileBytes
	}
	phase := phaseResult{name: "rounds"}
	var lat [nKinds][]float64
	// One sample per round of each phase's throughput; the medians over
	// rounds are reported.
	var readMBps, ingestMBps, transcodeMBps, repairMBps, opsPerS []float64
	fileMiB := float64(w.fileBytes) / mib
	ms := func(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Millisecond) }

	start, cpu0 := time.Now(), selfCPU()
	for time.Since(start).Seconds() < opts.seconds {
		roundStart, roundOps := time.Now(), phase.attempted
		var getS, putS float64
		for i := 0; i < w.names; i++ {
			name := nameOf(i)
			t0 := time.Now()
			got, err := st.Get(name)
			if err != nil {
				return none, err
			}
			lat[opGet] = append(lat[opGet], ms(t0))
			getS += time.Since(t0).Seconds()
			if !bytes.Equal(got, data.pre[name]) {
				phase.wrongBytes++
			}
			for r := 0; r < bulkRanges; r++ {
				off := rng.Intn(w.fileBytes - w.rangeBytes + 1)
				t0 := time.Now()
				if _, err := st.ReadAt(rangeBuf, name, int64(off)); err != nil && err != io.EOF {
					return none, err
				}
				lat[opRange] = append(lat[opRange], ms(t0))
				if !bytes.Equal(rangeBuf, data.pre[name][off:off+w.rangeBytes]) {
					phase.wrongBytes++
				}
			}
			phase.attempted += 1 + bulkRanges
		}

		t0 := time.Now()
		for i := 0; i < w.names; i++ {
			if _, err := st.TranscodeExtent(nameOf(i), 0, hotCode); err != nil {
				return none, err
			}
		}
		for i := 1; i < w.names; i += 2 {
			if _, err := st.TranscodeExtent(nameOf(i), 0, w.code); err != nil {
				return none, err
			}
		}
		moves := w.names + w.names/2
		transcodeMBps = append(transcodeMBps, float64(moves)*float64(ext0)/mib/time.Since(t0).Seconds())
		phase.attempted += moves

		for _, v := range []int{0, 1} {
			if err := st.KillNode(v); err != nil {
				return none, err
			}
		}
		t0 = time.Now()
		rep, err := st.Repair([]int{0, 1})
		if err != nil {
			return none, err
		}
		repairMBps = append(repairMBps, float64(rep.BlocksRestored)*float64(w.blockSize)/mib/time.Since(t0).Seconds())
		srep, err := st.Scrub(0)
		if err != nil {
			return none, err
		}
		if srep.Unrepairable > 0 || srep.CorruptFound > 0 || srep.MissingFound > 0 {
			res.fail("scrub after repair: %+v", srep)
		}
		frep, err := st.Fsck()
		if err != nil {
			return none, err
		}
		if !frep.Healthy() {
			res.fail("fsck after repair: %d blocks missing, %d corrupt", frep.Missing, frep.Corrupt)
		}
		phase.attempted += 3
		// Overhead while both tiers hold data: extent 0 of half the
		// files on the hot code, everything else on the cold one.
		stored, err := bytesUnder(root)
		if err != nil {
			return none, err
		}
		res.e2e["storage_overhead"] = float64(stored) / float64(w.names*w.fileBytes)

		for i := 0; i < w.names; i++ {
			if _, err := st.Delete(nameOf(i)); err != nil {
				return none, err
			}
		}
		for i := 0; i < w.names; i++ {
			name := nameOf(i)
			t0 := time.Now()
			if err := st.PutReader(name, bytes.NewReader(data.pre[name])); err != nil {
				return none, err
			}
			lat[opPut] = append(lat[opPut], ms(t0))
			putS += time.Since(t0).Seconds()
		}
		phase.attempted += 2 * w.names
		readMBps = append(readMBps, float64(w.names)*fileMiB/getS)
		ingestMBps = append(ingestMBps, float64(w.names)*fileMiB/putS)
		opsPerS = append(opsPerS, float64(phase.attempted-roundOps)/time.Since(roundStart).Seconds())
	}
	phase.elapsed = time.Since(start)
	phase.failed = phase.wrongBytes

	// The last round left every file freshly ingested: read it all back.
	back := phaseResult{name: "read-back"}
	t0 := time.Now()
	for i := 0; i < w.names; i++ {
		got, err := st.Get(nameOf(i))
		if err != nil {
			return none, err
		}
		back.attempted++
		if !bytes.Equal(got, data.pre[nameOf(i)]) {
			back.wrongBytes++
			back.failed++
		}
	}
	back.elapsed = time.Since(t0)
	res.phase(&phase)
	res.phase(&back)

	for _, k := range []opKind{opGet, opRange} {
		res.e2e[kindNames[k]+"_p50_ms"] = quantile(lat[k], 0.50)
		res.samples[kindNames[k]+"_p50_ms"] = len(lat[k])
	}
	return map[string]float64{
		"gen.get_p99_ms":          quantile(lat[opGet], 0.99),
		"gen.range_p99_ms":        quantile(lat[opRange], 0.99),
		"gen.put_p50_ms":          quantile(lat[opPut], 0.50),
		"gen.put_p99_ms":          quantile(lat[opPut], 0.99),
		"gen.sat_ops_s":           median(opsPerS),
		"gen.bulk_read_mbps":      median(readMBps),
		"hdfsraid.ingest_mbps":    median(ingestMBps),
		"hdfsraid.transcode_mbps": median(transcodeMBps),
		"hdfsraid.repair_mbps":    median(repairMBps),
		"proc.server_cpu_ms_op":   float64(selfCPU()-cpu0) / float64(time.Millisecond) / float64(phase.attempted),
	}, nil
}
