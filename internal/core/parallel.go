package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// EncodeStream encodes data stripe by stripe through a bounded worker
// pool and hands each encoded stripe to emit exactly once — a
// zero-allocation pipeline for a file held in memory, where one worker
// encodes stripe N while another is still writing stripe N-1.
//
// Stripes reach emit out of order (EncodedStripe.Index identifies
// them), and emit is called concurrently from the workers, so it must
// be safe for concurrent use. Symbol buffers are drawn from pool
// (created at the striper's block size when nil) and recycled as soon
// as emit returns, so emit must not retain Symbols; data symbols of
// interior stripes alias data. A non-nil error from emit or any encode
// cancels the stream and is returned after the workers drain.
func (st *Striper) EncodeStream(data []byte, workers int, pool *BlockPool, emit func(EncodedStripe) error) error {
	count := st.StripeCount(len(data))
	if count == 0 {
		return nil
	}
	if pool == nil {
		pool = NewBlockPool(st.BlockSize)
	} else if pool.Size() != st.BlockSize {
		return fmt.Errorf("core: encode stream pool size %d != block size %d", pool.Size(), st.BlockSize)
	}
	workers = clampWorkers(workers, count)

	errs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < count && !failed.Load(); i += workers {
				blocks, pooled := st.stripeBlocks(data, i, pool)
				symbols, release, err := EncodeWith(st.Code, pool, blocks)
				if err != nil {
					err = fmt.Errorf("core: encoding stripe %d: %w", i, err)
				} else {
					err = emit(EncodedStripe{Index: i, Symbols: symbols})
					release()
				}
				for _, b := range pooled {
					pool.Put(b)
				}
				if err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func clampWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	return workers
}
