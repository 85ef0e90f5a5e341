package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// isOpen reports whether any of the process's file descriptors resolves to
// path, or skips the test where /proc does not list them. It looks for the one
// file rather than counting descriptors, because the runtime opens files of
// its own while a CPU profile runs (the profile writer reads /proc/self/maps
// and the test binary).
func isOpen(t *testing.T, path string) bool {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			return true
		}
	}
	return false
}

// profilePath is where a test's -cpuprofile goes: in a fresh directory, with
// symbolic links resolved so that it reads as /proc/self/fd reports it.
func profilePath(t *testing.T) string {
	t.Helper()
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "cpu.pprof")
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
	path := profilePath(t)
	busy, err := os.Create(filepath.Join(filepath.Dir(path), "busy.pprof"))
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

	f := bound(t, "-cpuprofile", path)
	st, stop, err := f.Start("cli", io.Discard)
	if err == nil || st != nil || stop != nil {
		t.Fatalf("Start under a running CPU profile: server %v, stop %v, err %v; want only the error", st, stop != nil, err)
	}
	if isOpen(t, path) {
		t.Errorf("%s still open after Start failed", path)
	}
}

// TestStopWritesAndClosesTheCPUProfile: the stop Start returns ends the CPU
// profile and closes its file, which then holds the profile.
func TestStopWritesAndClosesTheCPUProfile(t *testing.T) {
	path := profilePath(t)
	f := bound(t, "-cpuprofile", path)
	_, stop, err := f.Start("cli", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !isOpen(t, path) {
		t.Fatalf("%s not open while the profile runs; the descriptor scan cannot see it", path)
	}
	stop()
	if isOpen(t, path) {
		t.Errorf("%s still open after stop", path)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Errorf("CPU profile after stop: %v, %v", info, err)
	}
}
