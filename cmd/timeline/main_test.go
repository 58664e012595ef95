package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the timeline golden file")

// TestTimelineGolden pins the rendered protocol timelines — the paper's
// Figures 2 and 3 plus the contention MACs, the crash/rejoin and
// degradation traces, and one Chrome trace export — byte for byte.
// Refresh with:
//
//	go test ./cmd/timeline -run TestTimelineGolden -update
func TestTimelineGolden(t *testing.T) {
	var b strings.Builder
	for _, args := range [][]string{
		{"-mac", "static"},
		{"-mac", "dynamic"},
		{"-mac", "csma"},
		{"-mac", "lpl"},
		{"-mac", "dynamic", "-crash"},
		{"-mac", "static", "-degrade"},
	} {
		fmt.Fprintf(&b, "== timeline %s\n", strings.Join(args, " "))
		if err := run(args, &b); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	out := filepath.Join(t.TempDir(), "trace.json")
	fmt.Fprintf(&b, "== timeline -mac dynamic -trace-out (JSON)\n")
	if err := run([]string{"-mac", "dynamic", "-trace-out", out}, new(strings.Builder)); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(js)
	b.WriteString("\n")
	got := b.String()

	golden := filepath.Join("testdata", "timeline.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden snapshot (run with -update to record): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("timeline golden drifted at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("timeline golden drifted: %d lines, want %d", len(gl), len(wl))
	}
}

func TestTimelineRejectsUnknownMAC(t *testing.T) {
	err := run([]string{"-mac", "bogus"}, new(strings.Builder))
	if err == nil || !strings.Contains(err.Error(), `unknown MAC "bogus"`) {
		t.Fatalf("err = %v, want an unknown-MAC error", err)
	}
}
