package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestRepro runs every subcommand in-process and compares its output
// byte for byte with testdata/<sub>.txt, so every number the paper's
// tables and figures are regenerated with is pinned.
func TestRepro(t *testing.T) {
	for _, sub := range []string{"table1", "fig3", "fig4", "fig5", "repair", "tier"} {
		t.Run(sub, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(sub, &got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", sub+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from testdata/%s.txt:\n--- got\n%s--- want\n%s", sub, got.Bytes(), want)
			}
		})
	}
	if err := run("fig6", &bytes.Buffer{}); !errors.Is(err, errUsage) {
		t.Errorf("unknown subcommand: err = %v, want usage", err)
	}
}
