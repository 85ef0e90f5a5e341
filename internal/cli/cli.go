// Package cli is the front end cmd/frsim and cmd/sweep share: the flags the two
// commands mean the same thing by are bound, defaulted and refused here, once,
// and the pprof profiles, the live status server and the file writes they both
// do are started, stopped and reported here. Flags that share only a name
// (-chaos, -crc-bits, -profile, -waterfall, -scenario) stay in their commands:
// code serving both would branch on its caller.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"frfc/internal/experiment"
	"frfc/internal/noc"
	"frfc/internal/status"
)

// Flags holds the shared flags' values after Parse: the measurement group, as
// experiment.Grid names its fields, and the host group, which only Start reads.
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
// Routing are vocabulary; Expand refuses a word the grid does not know.)
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
// the CPU profile and closes its file, writes the heap profile (a failure
// closing or writing either is one stderr line; the command's work is already
// done) and closes the server. On error nothing is left running or open.
func (f *Flags) Start(cmd string, stderr io.Writer) (*status.Server, func(), error) {
	var st *status.Server
	if f.statusAddr != "" {
		var err error
		if st, err = status.Serve(f.statusAddr); err != nil {
			return nil, nil, fmt.Errorf("status server: %w", err)
		}
		fmt.Fprintf(stderr, "%s: status on http://%s/status, metrics on http://%s/metrics\n", cmd, st.Addr(), st.Addr())
	}
	var cpu *os.File
	if f.cpuProfile != "" {
		var err error
		if cpu, err = os.Create(f.cpuProfile); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if st != nil {
				st.Close()
			}
			return nil, nil, err
		}
	}
	return st, func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
			}
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

// Expand is g's specs and loads, every rejection worded as the command lines'
// flags: the grid's fields are named as those flags, so a rejection that
// names one reads as that flag ("-step must be > 0 (got 0)").
func Expand(g experiment.Grid) ([]experiment.Spec, []float64, error) {
	loads, err := g.LoadPoints()
	var specs []experiment.Spec
	if err == nil {
		specs, err = g.Specs()
	}
	if err != nil {
		var ge *experiment.GridError
		if errors.As(err, &ge) && ge.Field != "" {
			err = fmt.Errorf("-%w", err)
		}
		return nil, nil, err
	}
	return specs, loads, nil
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
