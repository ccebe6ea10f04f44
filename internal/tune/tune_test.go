package tune

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	_ "repro/internal/code/polygon"
	_ "repro/internal/code/rs"
	"repro/internal/durable"
	"repro/internal/gf256"
)

func fastOpts() Options {
	return Options{BlockSize: 4096, ProbeMB: 1, Rounds: 1}
}

func TestProbeAndRoundtrip(t *testing.T) {
	p, err := Probe([]string{"pentagon", "rs-14-10", "no-such-code"}, fastOpts())
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if p.Kernel != gf256.KernelName() {
		t.Fatalf("Kernel = %q, want %q", p.Kernel, gf256.KernelName())
	}
	if _, ok := p.Codes["no-such-code"]; ok {
		t.Fatal("unknown code was probed")
	}
	for _, name := range []string{"pentagon", "rs-14-10"} {
		ct := p.Codes[name]
		if ct.EncodeWorkers < 1 || ct.EncodeWorkers > runtime.GOMAXPROCS(0) {
			t.Fatalf("%s EncodeWorkers = %d", name, ct.EncodeWorkers)
		}
		if ct.DecodeWorkers < 1 || ct.DecodeWorkers > runtime.GOMAXPROCS(0) {
			t.Fatalf("%s DecodeWorkers = %d", name, ct.DecodeWorkers)
		}
		if ct.EncodeMBps <= 0 || ct.DecodeMBps <= 0 {
			t.Fatalf("%s throughput not recorded: %+v", name, ct)
		}
	}
	if p.MoveWorkers < 1 {
		t.Fatalf("MoveWorkers = %d", p.MoveWorkers)
	}
	if p.Stale() {
		t.Fatal("fresh probe reports stale")
	}

	path := filepath.Join(t.TempDir(), FileName)
	if err := p.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	q, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if q.EncodeWorkers("pentagon") != p.EncodeWorkers("pentagon") ||
		q.DecodeWorkers("rs-14-10") != p.DecodeWorkers("rs-14-10") {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", q, p)
	}
}

func TestLoadMissingAndNilSafety(t *testing.T) {
	p, err := Load(filepath.Join(t.TempDir(), FileName))
	if err != nil || p != nil {
		t.Fatalf("Load(missing) = (%v, %v), want (nil, nil)", p, err)
	}
	if p.EncodeWorkers("pentagon") != 0 || p.DecodeWorkers("x") != 0 {
		t.Fatal("nil Params must report 0 workers")
	}
	if !p.Stale() {
		t.Fatal("nil Params must be stale")
	}
	// Save never leaves a zero-length or partial file visible: a store
	// opening mid-save loads the previous calibration or the new one.
	path := filepath.Join(t.TempDir(), FileName)
	saved := &Params{Kernel: gf256.KernelName(), MaxProcs: 1, Codes: map[string]CodeTune{}}
	for i := 0; i < 500; i++ {
		saved.Codes[fmt.Sprintf("code-%03d", i)] = CodeTune{EncodeWorkers: 1, DecodeWorkers: 1}
	}
	before := durable.Syncs()
	if err := saved.Save(path); err != nil {
		t.Fatal(err)
	}
	if got := durable.Syncs() - before; got != 2 {
		t.Fatalf("Save issued %d fsyncs, want the file's and the directory's", got)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := saved.Save(path); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reads := 0; ; reads++ {
		got, err := Load(path)
		if err != nil || got == nil || len(got.Codes) != len(saved.Codes) {
			t.Fatalf("read %d during Save: %v, err %v", reads, got, err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestStaleOnKernelMismatch(t *testing.T) {
	p := &Params{Kernel: "not-a-kernel", MaxProcs: runtime.GOMAXPROCS(0)}
	if !p.Stale() {
		t.Fatal("kernel mismatch not stale")
	}
	p = &Params{Kernel: gf256.KernelName(), MaxProcs: runtime.GOMAXPROCS(0) + 8}
	if !p.Stale() {
		t.Fatal("larger MaxProcs not stale")
	}
	p = &Params{Kernel: gf256.KernelName(), MaxProcs: runtime.GOMAXPROCS(0)}
	if p.Stale() {
		t.Fatal("matching params reported stale")
	}
}

func TestProbeDevice(t *testing.T) {
	mbps, err := ProbeDevice(t.TempDir(), Options{BlockSize: 4096, ProbeMB: 1})
	if err != nil {
		t.Fatalf("ProbeDevice: %v", err)
	}
	if mbps <= 0 {
		t.Fatalf("device MB/s = %v", mbps)
	}
}
