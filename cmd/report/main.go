// Command report turns campaign result stores into a committed,
// human-readable BENCHMARK.md.
//
// Inputs are the JSONL stores a sweep writes with -out (one table per store,
// rows sorted by configuration and load). The output is deterministic — no
// timestamps, stable ordering — so re-running the command over unchanged
// inputs reproduces the committed file byte for byte, which is what makes the
// report reviewable in diffs.
//
// Malformed store lines are an error: the command exits non-zero naming the
// offending file and line number, so a corrupted store cannot silently
// produce a report missing rows. Pass -lenient to restore the old
// skip-and-count behavior (useful over stores healed after a crash).
//
// Usage:
//
//	report -out BENCHMARK.md benchmarks/campaign.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"frfc/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		outPath = fs.String("out", "", "write the report to this file (default: stdout)")
		lenient = fs.Bool("lenient", false, "skip undecodable store lines (counting them) instead of failing with the offending line number")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "report: "+format+"\n", a...)
		return 2
	}
	stores := fs.Args()
	if len(stores) == 0 {
		return fail("nothing to report: name at least one JSONL result store")
	}

	sources := make([]report.Source, 0, len(stores))
	for _, path := range stores {
		src, err := report.ReadStoreFile(path, *lenient)
		if err != nil {
			return fail("%v", err)
		}
		sources = append(sources, src)
	}

	out := report.Render(sources)
	if *outPath == "" {
		if _, err := stdout.Write(out); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	if err := os.WriteFile(*outPath, out, 0o644); err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stderr, "report: wrote %s (%d bytes)\n", *outPath, len(out))
	return 0
}
