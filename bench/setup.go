package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// setupStats is what one set-up measured besides its own duration.
type setupStats struct {
	ingestMBps, transcodeMBps float64
	// manifestBytes is the shards' manifests summed once the working
	// set is in place: what every later PUT and DELETE re-marshals.
	manifestBytes int64
}

const mib = 1 << 20

// prepare builds w's serving root from nothing: create the shard
// stores, preload the working set, and move the hot names to the hot
// code — in-process through the same packages hdfscli serves with,
// from nproc goroutines.
func prepare(root string, w *workload, data *dataset, nproc int) (setupStats, error) {
	var st setupStats
	if err := serve.CreateShards(root, w.code, w.blockSize, w.extentBlocks, w.shards); err != nil {
		return st, err
	}
	srv, err := serve.Open(root, serve.Config{})
	if err != nil {
		return st, err
	}
	err = fill(srv, w, data, nproc, &st)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, err
	}
	for i := 0; i < w.shards; i++ {
		fi, err := os.Stat(filepath.Join(root, fmt.Sprintf("shard-%02d", i), "manifest.json"))
		if err != nil {
			return st, err
		}
		st.manifestBytes += fi.Size()
	}
	return st, nil
}

// settle flushes what a set-up wrote. Block files are written without
// fsync, so without this the timed phases would race the set-up's
// writeback. It is not part of setup_s: how long the disk takes to
// flush says more about the disk's mood than about the program.
func settle() { syscall.Sync() }

func fill(srv *serve.Server, w *workload, data *dataset, nproc int, st *setupStats) error {
	start := time.Now()
	err := eachName(w.names, nproc, func(name string) error {
		return srv.Put(name, bytes.NewReader(data.pre[name]))
	})
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	st.ingestMBps = float64(w.names) * float64(w.fileBytes) / mib / time.Since(start).Seconds()
	if w.hot == 0 {
		return nil
	}
	start = time.Now()
	err = eachName(w.hot, nproc, func(name string) error {
		_, err := srv.Shard(srv.ShardOf(name)).Transcode(name, hotCode)
		return err
	})
	if err != nil {
		return fmt.Errorf("moving hot names to %s: %w", hotCode, err)
	}
	st.transcodeMBps = float64(w.hot) * float64(w.fileBytes) / mib / time.Since(start).Seconds()
	return nil
}

// setUpRun is what the repeated set-up of one run produced: the last
// root (the one the run then uses), its child server unless the workload
// is in-process, and one sample per set-up of everything timed.
type setUpRun struct {
	root                               string
	child                              *child
	last                               setupStats
	seconds, ingestMBps, transcodeMBps []float64
}

// setUp builds the workload's store from nothing several times — once
// when traced or smoking — and keeps the last. setup_s is the median, so
// that one slow fsync does not decide it: at least setupRepeats set-ups,
// and a set-up that takes a fraction of a second is repeated, up to
// three times as often, until setupSeconds have gone into it.
func setUp(e *env, w *workload, dir string, data *dataset, opts runOpts) (*setUpRun, error) {
	repeats := setupRepeats
	if opts.trace || e.smoke {
		repeats = 1
	}
	up := &setUpRun{}
	var spent time.Duration
	for i := 0; ; i++ {
		up.root = filepath.Join(dir, fmt.Sprintf("root-%d", i))
		start := time.Now()
		var err error
		if up.last, err = prepare(up.root, w, data, e.nproc); err != nil {
			return nil, err
		}
		if !w.inProcess {
			if up.child, err = startChild(e.hdfscli, up.root); err != nil {
				return nil, err
			}
		}
		up.seconds = append(up.seconds, time.Since(start).Seconds())
		spent += time.Since(start)
		settle()
		up.ingestMBps = append(up.ingestMBps, up.last.ingestMBps)
		up.transcodeMBps = append(up.transcodeMBps, up.last.transcodeMBps)
		if i >= repeats-1 && (repeats == 1 || i == 3*repeats-1 || spent > setupSeconds) {
			break
		}
		if up.child != nil {
			if _, err := up.child.stop(); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(up.root); err != nil {
			return nil, err
		}
	}
	return up, nil
}

// eachName calls fn for names 0..n-1 from workers goroutines and
// returns the first error.
func eachName(n, workers int, fn func(name string) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n && errs[g] == nil; i += workers {
				errs[g] = fn(nameOf(i))
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bytesUnder sums the sizes of every regular file below root.
func bytesUnder(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// fsyncProbe times a 4 KiB write+fsync in dir: the price of one durable
// write on the medium the workload runs on.
func fsyncProbe(dir string) (p50us float64, err error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	page := make([]byte, 4<<10)
	var us []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := f.WriteAt(page, 0); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	return median(us), nil
}
