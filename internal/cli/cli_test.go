package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// openFiles counts the process's open file descriptors, or skips the test
// where /proc does not list them.
func openFiles(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(fds)
}

func bound(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	f := Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStartFailsWhileACPUProfileRuns: a CPU profile that cannot start is the
// error Start returns, with no server and no stop, and the file it created
// for the profile is closed again.
func TestStartFailsWhileACPUProfileRuns(t *testing.T) {
	dir := t.TempDir()
	busy, err := os.Create(filepath.Join(dir, "busy.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(busy); err != nil {
		t.Fatal(err)
	}
	defer func() {
		pprof.StopCPUProfile()
		busy.Close()
	}()

	f := bound(t, "-cpuprofile", filepath.Join(dir, "cpu.pprof"))
	before := openFiles(t)
	st, stop, err := f.Start("cli", io.Discard)
	if err == nil || st != nil || stop != nil {
		t.Fatalf("Start under a running CPU profile: server %v, stop %v, err %v; want only the error", st, stop != nil, err)
	}
	if after := openFiles(t); after != before {
		t.Errorf("%d files open before Start, %d after its failure", before, after)
	}
}

// TestStopWritesAndClosesTheCPUProfile: the stop Start returns ends the CPU
// profile and closes its file, which then holds the profile.
func TestStopWritesAndClosesTheCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f := bound(t, "-cpuprofile", path)
	before := openFiles(t)
	_, stop, err := f.Start("cli", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if after := openFiles(t); after != before {
		t.Errorf("%d files open before Start, %d after stop", before, after)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Errorf("CPU profile after stop: %v, %v", info, err)
	}
}
