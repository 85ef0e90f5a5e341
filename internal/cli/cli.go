// Package cli is the front end cmd/frsim and cmd/sweep share: the flags the two
// commands mean the same thing by are bound, defaulted and refused here, once,
// and the pprof profiles, the live status server and the file writes they both
// do are started, stopped and reported here. Flags that share only a name
// (-chaos, -crc-bits, -profile, -waterfall, -scenario) stay in their commands:
// code serving both would branch on its caller.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"frfc"
	"frfc/internal/noc"
)

// Flags holds the shared flags' values after Parse: the measurement group, as
// frfc.Grid names its fields, and the host group, which only Start reads.
type Flags struct {
	Wiring, Routing        string
	PktLen, Sample, Warmup int
	Seed, ChaosSeed        uint64
	Check                  bool

	cpuProfile, memProfile, statusAddr string
}

// Bind declares the shared flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Wiring, "wiring", "fast", "physical wiring: fast (4x control wires) or leading (1-cycle wires, control lead)")
	fs.IntVar(&f.PktLen, "pktlen", 5, "packet length in data flits")
	fs.IntVar(&f.Sample, "sample", 5000, "packets sampled per point")
	fs.IntVar(&f.Warmup, "warmup", 3000, "minimum warm-up cycles")
	fs.Uint64Var(&f.Seed, "seed", 0, "random seed (0 = default)")
	fs.StringVar(&f.Routing, "routing", "", "routing algorithm: xy (default), yx, or table (fault-aware lookup tables); FR configs only")
	fs.BoolVar(&f.Check, "check", false, "run FR configs, and every row of sweep's fault modes, under the per-cycle invariant checker (credit conservation, table accounting)")
	fs.Uint64Var(&f.ChaosSeed, "chaos-seed", 0, "chaos plan seed for -chaos (0 = default); the plan is a pure function of it")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the command to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile to this file when the command ends")
	fs.StringVar(&f.statusAddr, "status-addr", "", "serve live status over HTTP on this host:port (/status JSON snapshot, /metrics Prometheus exposition); results stay bit-identical")
	return f
}

// Validate refuses, by name, what no measurement can run: the protocol needs a
// positive sample and warm-up, and a packet at least one flit and no longer
// than a flit's 32-bit sequence number counts. (Wiring and
// Routing are vocabulary; frfc.Grid refuses a word it does not know.)
func (f *Flags) Validate() error {
	switch {
	case f.PktLen < 1 || f.PktLen > noc.MaxLen:
		return fmt.Errorf("-pktlen must be in [1,%d] (got %d)", noc.MaxLen, f.PktLen)
	case f.Sample <= 0:
		return fmt.Errorf("-sample must be > 0 (got %d)", f.Sample)
	case f.Warmup <= 0:
		return fmt.Errorf("-warmup must be > 0 (got %d)", f.Warmup)
	}
	return nil
}

// Start begins what the host flags ask for — the status server, announced on
// stderr under the command's name, then the CPU profile — and returns the
// server (nil without -status-addr) and the stop the command defers: it ends
// the CPU profile, writes the heap profile (a failure there is one stderr
// line; the command's work is already done) and closes the server. On error
// nothing is left running.
func (f *Flags) Start(cmd string, stderr io.Writer) (*frfc.StatusServer, func(), error) {
	var st *frfc.StatusServer
	if f.statusAddr != "" {
		var bound string
		var err error
		if st, bound, err = frfc.ServeStatus(f.statusAddr); err != nil {
			return nil, nil, fmt.Errorf("status server: %w", err)
		}
		fmt.Fprintf(stderr, "%s: status on http://%s/status, metrics on http://%s/metrics\n", cmd, bound, bound)
	}
	if f.cpuProfile != "" {
		cpu, err := os.Create(f.cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			if st != nil {
				st.Close()
			}
			return nil, nil, err
		}
	}
	return st, func() {
		if f.cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if f.memProfile != "" {
			runtime.GC()
			if err := WriteFile(f.memProfile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
			}
		}
		if st != nil {
			st.Close()
		}
	}, nil
}

// WriteFile creates path, hands it to write and closes it, reporting the first
// of the three to fail.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Refusal returns the command's way to refuse an invocation: one
// "cmd: message" line on stderr, and the exit code 2 to return.
func Refusal(cmd string, stderr io.Writer) func(format string, a ...any) int {
	return func(format string, a ...any) int {
		fmt.Fprintf(stderr, cmd+": "+format+"\n", a...)
		return 2
	}
}
