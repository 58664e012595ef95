package main

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestKillResumeRoundTrip is the resilience acceptance test (`make
// resume-check`): a journaled sweep killed by SIGTERM mid-batch and
// resumed with -resume must emit CSV byte-identical to the same sweep
// run uninterrupted. Sequential workers make "mid-batch" deterministic:
// the kill lands while later points are still pending.
func TestKillResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sweep binary")
	}
	bin := buildSweep(t)
	args := []string{"-mode", "ber", "-duration", "10s", "-workers", "1"}

	ref, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	// Journaled run, SIGTERM after the first point completes. The
	// in-flight point drains and is journaled too; the rest are skipped.
	jnl := filepath.Join(t.TempDir(), "sweep.jnl")
	killed := exec.Command(bin, append(args, "-progress", "-journal", jnl)...)
	stderr, err := killed.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := killed.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	signalled := false
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if !signalled && strings.Contains(sc.Text(), "1/6") {
			if err := killed.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			signalled = true
		}
	}
	err = killed.Wait()
	if !signalled {
		t.Fatalf("never saw the first progress line:\n%s", strings.Join(lines, "\n"))
	}
	if err == nil {
		t.Fatalf("killed sweep exited zero:\n%s", strings.Join(lines, "\n"))
	}
	interrupted := false
	for _, l := range lines {
		if strings.Contains(l, "interrupted: partial results") {
			interrupted = true
		}
	}
	if !interrupted {
		t.Fatalf("killed sweep did not report partial results:\n%s", strings.Join(lines, "\n"))
	}

	// Resume: recorded points restore, the rest run, CSV matches the
	// uninterrupted reference byte for byte.
	resumed := exec.Command(bin, append(args, "-resume", jnl)...)
	var out, errb bytes.Buffer
	resumed.Stdout, resumed.Stderr = &out, &errb
	if err := resumed.Run(); err != nil {
		t.Fatalf("resumed sweep: %v\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "restored") {
		t.Fatalf("resumed sweep restored nothing:\n%s", errb.String())
	}
	if !bytes.Equal(out.Bytes(), ref) {
		t.Fatalf("resumed CSV differs from the uninterrupted run:\n--- reference\n%s--- resumed\n%s", ref, out.Bytes())
	}
}

// TestFailedPointExitsNonZero checks the batch CLI failure contract: a
// sweep containing an impossible point renders the healthy rows but
// exits non-zero with a one-line summary.
func TestFailedPointExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sweep binary")
	}
	bin := buildSweep(t)
	// A zero measurement window fails every point's validation.
	cmd := exec.Command(bin, "-mode", "cycle", "-duration", "0s", "-workers", "2")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("sweep with failing points exited %v\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "failed") {
		t.Fatalf("no failure summary on stderr:\n%s", errb.String())
	}
	// The header row still reaches stdout — the report path survives.
	if !strings.HasPrefix(out.String(), "point,") {
		t.Fatalf("no CSV emitted:\n%s", out.String())
	}
}

// TestAppSelection: every core application runs through -app, and an
// unknown one fails in core's validation, whose message names the valid
// apps.
func TestAppSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sweep binary")
	}
	bin := buildSweep(t)
	cmd := exec.Command(bin, "-mode", "nodes", "-app", "eeg", "-duration", "1s", "-workers", "2")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("sweep -app eeg: %v\n%s", err, errb.String())
	}
	if rows := strings.Count(out.String(), "\nnodes="); rows != 5 {
		t.Fatalf("sweep -app eeg emitted %d rows, want 5:\n%s", rows, out.String())
	}

	cmd = exec.Command(bin, "-mode", "nodes", "-app", "bogus", "-duration", "1s", "-workers", "2")
	errb.Reset()
	cmd.Stderr = &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("sweep -app bogus exited %v\n%s", err, errb.String())
	}
	if want := `core: unknown app "bogus" (want streaming, rpeak, hrv or eeg)`; !strings.Contains(errb.String(), want) {
		t.Fatalf("stderr lacks core's message %q:\n%s", want, errb.String())
	}
}

// buildSweep compiles the sweep binary into a test temp directory.
func buildSweep(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sweep: %v\n%s", err, out)
	}
	return bin
}
