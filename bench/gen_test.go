package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/loadgen"
)

// TestStallIsChargedToEveryOpScheduledDuringIt drives a server that
// stops answering for a while. An open-loop generator must charge the
// stall to every op that came due during it, each from its own intended
// send time, and must report that it sent those ops late; a generator
// with coordinated omission would charge one op and pause the rest.
func TestStallIsChargedToEveryOpScheduledDuringIt(t *testing.T) {
	const (
		size     = 64
		interval = 5 * time.Millisecond
		ops      = 100
		stallAt  = 20 // the op that hangs the server
		stall    = 200 * time.Millisecond
	)
	w := &workload{names: 4, fileBytes: size}
	data := newDataset(w)

	// One lock for all requests: while the stalled request sleeps
	// holding it, every connection's request queues behind it.
	var mu sync.Mutex
	stalled := false
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		name := r.URL.Path[len("/files/"):]
		if name == nameOf(1) && !stalled {
			stalled = true
			time.Sleep(stall)
		}
		rw.Write(loadgen.Content(name, size))
	}))
	defer ts.Close()

	sched := make([]op, ops)
	for i := range sched {
		sched[i] = op{kind: opGet, name: nameOf(0), n: size, at: time.Duration(i) * interval}
	}
	sched[stallAt].name = nameOf(1)

	tgt := newTarget(ts.URL, 2, data, newLiveSet(w))
	defer tgt.close()
	res := runOpen(tgt, sched, 2)
	if res.failed != 0 || res.attempted != ops {
		t.Fatalf("attempted %d failed %d, want %d and 0", res.attempted, res.failed, ops)
	}

	// An op due inside the stall cannot have been answered before it
	// ended, so it must be charged at least the rest of the stall from its
	// own due time. Latencies come back in completion order, so count.
	lat := res.lat[opGet]
	charged := 0
	for _, ms := range lat {
		if ms >= 20 {
			charged++
		}
	}
	// 200 ms of stall at one op per 5 ms puts about 40 ops inside it; an
	// op due with 20 ms or more of stall left is charged at least that.
	wantCharged := int((stall-20*time.Millisecond)/interval) - 2
	if charged < wantCharged {
		t.Errorf("%d ops were charged 20 ms or more; the stall covered at least %d intended send times", charged, wantCharged)
	}
	if max := quantile(lat, 1); max < float64(stall/time.Millisecond)-5 {
		t.Errorf("slowest op took %.1f ms, less than the %v stall", max, stall)
	}
	if p99 := quantile(res.lateMs, 0.99); p99 < 100 {
		t.Errorf("late p99 = %.1f ms: the generator did not report that the stall made it send late", p99)
	}
	if res.backlogMax < 10 {
		t.Errorf("backlog max = %d, want the ops that came due during the stall", res.backlogMax)
	}
}

// TestScheduleIsAFunctionOfTheSeed pins that the arrival schedule is
// generated from the seed alone.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if w.inProcess {
			continue
		}
		a := scheduleHash(buildSchedule(&w, 1, 3, 3*time.Second))
		b := scheduleHash(buildSchedule(&w, 1, 3, 3*time.Second))
		c := scheduleHash(buildSchedule(&w, 2, 3, 3*time.Second))
		if a != b {
			t.Errorf("%s: the same seed gave two different schedules", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", w.name)
		}
	}
}

// TestChurnScheduleNeverDeletesWhatItCannotOwn replays a schedule and
// checks the property that makes small_churn free of 404s: every DELETE
// names either a preloaded name nobody reads, once, or a name whose PUT
// was scheduled at least deleteAge earlier.
func TestChurnScheduleNeverDeletesWhatItCannotOwn(t *testing.T) {
	w, _ := workloadByName("small_churn")
	const streams = 3
	sched := buildSchedule(&w, 7, streams, 8*time.Second)
	readable := newMixer(&w, 7, 0, streams, 0).readable
	putAt := map[string]time.Duration{}
	deleted := map[string]bool{}
	kinds := [nKinds]int{}
	for _, o := range sched {
		kinds[o.kind]++
		switch o.kind {
		case opPut:
			putAt[o.name] = o.at
		case opDelete:
			if deleted[o.name] {
				t.Fatalf("%s is deleted twice", o.name)
			}
			deleted[o.name] = true
			if at, ok := putAt[o.name]; ok {
				if o.at-at < deleteAge {
					t.Fatalf("%s is deleted %v after its PUT, want at least %v", o.name, o.at-at, deleteAge)
				}
			} else if o.name < nameOf(readable) || o.name >= nameOf(w.names) {
				t.Fatalf("DELETE of %s: neither created by the schedule nor reserved for it", o.name)
			}
		default:
			if o.name >= nameOf(readable) {
				t.Fatalf("read of %s, a name some stream may delete", o.name)
			}
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("the schedule holds no %s", kindNames[k])
		}
	}
}
