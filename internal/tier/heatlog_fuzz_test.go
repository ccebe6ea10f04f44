package tier

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/tier/accesslog"
)

// FuzzHeatLogReplay feeds OpenHeatLog arbitrary bytes as tier-heat.log
// beside a fixed generation-1 snapshot — raw, and (framed) with each
// line wrapped in a valid frame so the records themselves are reached.
// It must never panic nor change either file, and a view it yields is
// exactly the snapshot plus the decodable records of the log's
// CRC-valid prefix when that prefix is headed for generation 1 (a
// record without an extent, Ext < 0, is not decodable), the snapshot
// alone when the log is older or empty.
func FuzzHeatLogReplay(f *testing.F) {
	dir := f.TempDir()
	snapPath, logPath := filepath.Join(dir, heatFileName), filepath.Join(dir, heatLogName)
	rec := func(name string, ext int, n float64) string {
		return string(accesslog.Record{Name: name, Ext: ext, N: n, Time: 5, Src: 7}.Encode())
	}
	f.Add([]byte(`{"op":"gen","gen":1}`+"\n"+rec("f", -1, 2)+"\n"+`{"v":2}`+"\n"+rec("g", 3, 1)), true)
	f.Add([]byte(`{"op":"gen"}`+"\n"+rec("f", 0, 9)), true)
	f.Add([]byte(`{"op":"gen","gen":2}`+"\n"+rec("f", 0, 9)), true)
	f.Add([]byte(rec("headless", 0, 1)), true)
	f.Add([]byte("\x14\x00\x00\x00\xde\xad\xbe\xef{\"op\":\"gen\",\"gen\":1}"), false)
	h, err := OpenHeatLog(dir, 0, accesslog.Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.TouchExtent("f", i%2, 1)
	}
	if err := h.Compact(); err != nil {
		f.Fatal(err)
	}
	h.TouchExtent("g", 0, 2)
	if err := h.Close(); err != nil {
		f.Fatal(err)
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		f.Fatal(err)
	}
	live, err := os.ReadFile(logPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(live, false)
	log, err := durable.OpenLog(logPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		log.Reset()
		if framed {
			if err := log.Append(bytes.Split(data, []byte("\n"))...); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(logPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		content, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		h, openErr := OpenHeatLog(dir, 0, accesslog.Options{})
		if openErr == nil {
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if after, _ := os.ReadFile(logPath); !bytes.Equal(after, content) {
			t.Fatal("a handle that only read changed the log")
		}
		if after, _ := os.ReadFile(snapPath); !bytes.Equal(after, snap) {
			t.Fatal("a handle that only read changed the snapshot")
		}
		// The reference: durable.Log's own replay of the intact prefix.
		want, _, err := restoreTracker(snap, 0)
		if err != nil {
			t.Fatal(err)
		}
		first, refused := true, false
		log.Replay(0, func(raw []byte) error {
			if first {
				var head struct {
					Op  string
					Gen int64
				}
				first = false
				if json.Unmarshal(raw, &head) != nil || head.Op != "gen" || head.Gen > 1 {
					refused = true
				}
				if refused || head.Gen < 1 {
					return fmt.Errorf("stop")
				}
				return nil
			}
			if r, ok := accesslog.Decode(raw); ok {
				touchTracker(want, r)
			}
			return nil
		})
		if refused != (openErr != nil) {
			t.Fatalf("OpenHeatLog = %v; a log it must refuse: %v", openErr, refused)
		}
		if refused {
			return
		}
		got := h.Tracker()
		if got.Len() != want.Len() {
			t.Fatalf("%d files tracked, want %d", got.Len(), want.Len())
		}
		for name := range want.files {
			for ext := -1; ext < 4; ext++ {
				if g, w := fmt.Sprint(got.ExtentHeat(name, ext, 0)), fmt.Sprint(want.ExtentHeat(name, ext, 0)); g != w {
					t.Fatalf("%q extent %d: heat %s, want %s", name, ext, g, w)
				}
			}
		}
	})
}
