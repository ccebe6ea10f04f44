package reshard

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chaos"
)

// underLoad runs the chaos client's reshard load on c and, once it has
// ramped, calls reshard under it; the load stops when reshard returns.
// The load must not lie and must run every op kind of its mix.
func underLoad(t *testing.T, c *chaos.Client, reshard func()) chaos.Result {
	t.Helper()
	type out struct {
		res chaos.Result
		err error
	}
	stop, done := make(chan struct{}), make(chan out, 1)
	go func() {
		res, err := c.Load(stop)
		done <- out{res, err}
	}()
	func() {
		defer close(stop)
		time.Sleep(200 * time.Millisecond)
		reshard()
	}()
	o := <-done
	if o.err != nil {
		t.Fatalf("load under reshard: %v\nresult: %+v", o.err, o.res)
	}
	t.Logf("load under reshard: %+v", o.res)
	return o.res
}

// TestReshardUnderLoad grows 4 -> 6 shards under the chaos client's
// verified load: reads, ranged reads and private write pairs. The
// contract: no response lies, no op fails (a mid-move 503 is retried
// by the client, never surfaced), names really move, and the grown
// fleet passes chaos.Settle.
func TestReshardUnderLoad(t *testing.T) {
	root, srv, _ := seedRoot(t, 4, 0)
	// The throttle makes the move window overlap live traffic.
	ctl, err := Attach(root, srv, Options{Throttle: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := chaos.NewClient(ts.URL, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := underLoad(t, c, func() {
		if err := ctl.Start(6); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Wait(); err != nil {
			t.Fatalf("reshard under load: %v", err)
		}
	})
	if res.Errs != 0 {
		t.Fatalf("%d hard errors under reshard (mid-move 503s should have been retried)", res.Errs)
	}
	if st := ctl.Status(); st.Done == 0 {
		t.Fatal("vacuous reshard: no names moved under load")
	}
	if err := chaos.Settle(srv, c); err != nil {
		t.Fatal(err)
	}
}
