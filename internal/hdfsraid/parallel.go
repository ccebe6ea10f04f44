package hdfsraid

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallel runs fn(0) … fn(n-1) on up to GOMAXPROCS goroutines, handing
// indices out in order; one worker (or one index) runs inline. After
// the first error nothing more is dispatched, in-flight calls drain,
// and that error is returned.
func parallel(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		first atomic.Pointer[error]
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					first.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if err := first.Load(); err != nil {
		return *err
	}
	return nil
}
