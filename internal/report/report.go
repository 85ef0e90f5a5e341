// Package report renders campaign result stores and benchmark logs into the
// committed, human-readable BENCHMARK.md.
//
// The output is deterministic — no timestamps, stable ordering — so rendering
// the same inputs twice reproduces the file byte for byte, which is what
// makes the report reviewable in diffs. cmd/report drives it from files; the
// campaign service's background reporter drives it from the live result
// database.
package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"frfc/internal/harness"
	"frfc/internal/profile"
)

// Source is one result store's rows, ready to render as a report section.
type Source struct {
	// Name labels the section header (a file path for cmd/report, the
	// database directory for the service reporter).
	Name string
	Rows []harness.Entry
	// Skipped counts undecodable lines tolerated in lenient mode.
	Skipped int
}

// MalformedError reports an undecodable store line in strict mode, carrying
// the 1-based physical line number of the offending record.
type MalformedError struct {
	Name string // store name (usually the file path)
	Line int    // 1-based line number
	Err  error  // why harness.DecodeEntry refused the line
}

func (e *MalformedError) Error() string {
	return fmt.Sprintf("%s:%d: malformed record: %v", e.Name, e.Line, e.Err)
}

func (e *MalformedError) Unwrap() error { return e.Err }

// ReadStore loads a JSONL result store from r, keeping the last entry per
// hash (matching the store's own resume semantics) and sorting rows by spec,
// load, seed. In strict mode (lenient=false) the first undecodable line
// aborts with a *MalformedError naming its line number; in lenient mode such
// lines are counted in the returned Source's Skipped field instead.
func ReadStore(r io.Reader, name string, lenient bool) (Source, error) {
	src := Source{Name: name}
	byHash := map[string]harness.Entry{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		row, err := harness.DecodeEntry(line)
		if err != nil {
			if !lenient {
				return src, &MalformedError{Name: name, Line: lineNo, Err: err}
			}
			src.Skipped++
			continue
		}
		if _, seen := byHash[row.Hash]; !seen {
			order = append(order, row.Hash)
		}
		byHash[row.Hash] = row
	}
	if err := sc.Err(); err != nil {
		return src, fmt.Errorf("read %s: %w", name, err)
	}
	src.Rows = make([]harness.Entry, 0, len(order))
	for _, h := range order {
		src.Rows = append(src.Rows, byHash[h])
	}
	sort.SliceStable(src.Rows, func(i, j int) bool {
		if src.Rows[i].Spec != src.Rows[j].Spec {
			return src.Rows[i].Spec < src.Rows[j].Spec
		}
		if src.Rows[i].Load != src.Rows[j].Load {
			return src.Rows[i].Load < src.Rows[j].Load
		}
		return src.Rows[i].Seed < src.Rows[j].Seed
	})
	return src, nil
}

// ReadStoreFile is ReadStore over a file path.
func ReadStoreFile(path string, lenient bool) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return Source{Name: path}, err
	}
	defer f.Close()
	return ReadStore(f, path, lenient)
}

// Bench bundles the parsed benchmark inputs for the report's benchmark
// section. A nil *Bench omits the section.
type Bench struct {
	Path         string // benchmark log path, shown in the section header
	BaselinePath string // baseline log path, "" when absent
	Latest       map[string]float64
	Order        []string
	Base         map[string]float64 // nil when no baseline
	Allocs       map[string]JSONEntry
}

// JSONEntry is one benchmark's row in scripts/bench.sh's latest.json.
type JSONEntry struct {
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
}

// ParseBenchFile reads `go test -bench` output, returning ns/op per
// benchmark and the order the benchmarks appeared in.
func ParseBenchFile(path string) (map[string]float64, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ns := map[string]float64{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// name iterations value ns/op [more value unit pairs...]
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if _, seen := ns[fields[0]]; !seen {
				order = append(order, fields[0])
			}
			ns[fields[0]] = v
			break
		}
	}
	return ns, order, sc.Err()
}

// ParseBenchJSONFile reads scripts/bench.sh's machine-readable summary.
func ParseBenchJSONFile(path string) (map[string]JSONEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]JSONEntry
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return m, nil
}

// Render produces the full report: the fixed preamble, one section per
// source, and the benchmark section when bench is non-nil.
func Render(sources []Source, bench *Bench) []byte {
	var b bytes.Buffer
	b.WriteString("# Benchmark Report\n\n")
	b.WriteString("Auto-generated by `cmd/report` from the committed campaign stores and\n")
	b.WriteString("benchmark logs; do not edit by hand. Regenerate with:\n\n")
	b.WriteString("    go run ./cmd/report -bench benchmarks/latest.txt -baseline benchmarks/baseline.txt \\\n")
	b.WriteString("        -bench-json benchmarks/latest.json -out BENCHMARK.md benchmarks/campaign.jsonl\n\n")
	b.WriteString("Units: latency in cycles; offered and accepted loads as a percentage of\n")
	b.WriteString("network capacity; the CI column is the 95% batch-means half-width when\n")
	b.WriteString("the sample batched, else the i.i.d. interval.\n")
	for _, src := range sources {
		writeStoreSection(&b, src)
	}
	if bench != nil {
		writeBenchSection(&b, bench)
	}
	return b.Bytes()
}

func writeStoreSection(b *bytes.Buffer, src Source) {
	fmt.Fprintf(b, "\n## Campaign results — %s\n\n", src.Name)
	if len(src.Rows) == 0 {
		b.WriteString("No decodable result rows.\n")
		return
	}
	fmt.Fprintf(b, "%d points", len(src.Rows))
	if src.Skipped > 0 {
		fmt.Fprintf(b, " (%d undecodable lines skipped)", src.Skipped)
	}
	b.WriteString(".\n\n")

	b.WriteString("| Config | Load %cap | Latency | 95% CI ± | Accepted %cap | P99 | Delivered | Saturated |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|:---:|\n")
	for _, r := range src.Rows {
		ci := r.Result.CI95
		if r.Result.Batches > 0 {
			ci = r.Result.BatchCI95
		}
		sat := ""
		if r.Result.Saturated {
			sat = "yes"
		}
		fmt.Fprintf(b, "| %s | %.1f | %.2f | %.2f | %.1f | %d | %d/%d | %s |\n",
			r.Spec, r.Load*100, r.Result.AvgLatency, ci,
			r.Result.AcceptedLoad*100, r.Result.P99,
			r.Result.SampledDelivered, r.Result.SampleSize, sat)
	}

	writeFaultSubsection(b, src.Rows)
	writeProfileSubsection(b, src.Rows)
	writeWaterfallSubsection(b, src.Rows)
}

// writeFaultSubsection adds the fault/chaos delivery table when any row
// carried fault, retry or corruption activity. A healthy campaign — full
// delivery, nothing dropped or retried — keeps the report clean.
func writeFaultSubsection(b *bytes.Buffer, rows []harness.Entry) {
	any := false
	for _, r := range rows {
		res := r.Result
		if res.DroppedFlits > 0 || res.UnreachablePackets > 0 || res.RetriedPackets > 0 ||
			res.AbandonedPackets > 0 || res.CorruptedFlits > 0 ||
			(res.DeliveredFraction > 0 && res.DeliveredFraction < 1) {
			any = true
			break
		}
	}
	if !any {
		return
	}
	b.WriteString("\n### Fault and integrity delivery\n\n")
	b.WriteString("| Config | Load %cap | Delivered % | Unreachable | Dropped | Retried | Abandoned | Corrupted | CRC caught | Escapes |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, r := range rows {
		res := r.Result
		delivered := res.DeliveredFraction * 100
		fmt.Fprintf(b, "| %s | %.1f | %.1f | %d | %d | %d | %d | %d | %d | %d |\n",
			r.Spec, r.Load*100, delivered, res.UnreachablePackets, res.DroppedFlits,
			res.RetriedPackets, res.AbandonedPackets,
			res.CorruptedFlits, res.CrcDetected, res.CorruptEscapes)
	}
}

// writeProfileSubsection summarizes the self-profiling activity accounting of
// rows that carried it (campaigns run with profiling armed, on a fabric that
// accounts its ticks).
func writeProfileSubsection(b *bytes.Buffer, rows []harness.Entry) {
	var sum profile.Activity
	profiled := 0
	for _, r := range rows {
		if o := r.Result.Observed; o != nil && o.Activity != nil && o.Activity.Ticks > 0 {
			profiled++
			sum.Add(*o.Activity)
		}
	}
	if profiled == 0 {
		return
	}
	b.WriteString("\n### Self-profiling (simulator activity accounting)\n\n")
	fmt.Fprintf(b, "%d of %d points carried activity accounting.\n\n", profiled, len(rows))
	fmt.Fprintf(b, "- Idle component ticks: %.1f%% (%d active of %d total).\n",
		sum.IdleFraction*100, sum.ActiveTicks, sum.Ticks)
	if work := sum.SchedWork + sum.ArbWork + sum.SwitchWork + sum.CreditWork; work > 0 {
		fmt.Fprintf(b, "- FR-router phase work: sched %.1f%%, arb %.1f%%, switch %.1f%%, credit %.1f%% of %d attributed work items.\n",
			pct(sum.SchedWork, work), pct(sum.ArbWork, work), pct(sum.SwitchWork, work), pct(sum.CreditWork, work), work)
	}
}

// writeWaterfallSubsection renders the "where the cycles go" table: one row
// per point that decomposed at least one packet, mean cycles per stage,
// exactly partitioning the decomposed mean latency.
func writeWaterfallSubsection(b *bytes.Buffer, rows []harness.Entry) {
	header := false
	for _, r := range rows {
		o := r.Result.Observed
		if o == nil || o.Waterfall == nil || o.Waterfall.Packets == 0 {
			continue
		}
		if !header {
			header = true
			b.WriteString("\n### Where the cycles go (latency waterfall)\n\n")
			b.WriteString("Mean cycles per packet attributed to each lifecycle stage; the stages sum\n")
			b.WriteString("exactly to the decomposed mean latency.\n\n")
			b.WriteString("| Config | Load %cap | Queue | Reserve | Arb | Stall | Sched | Link | Drain | Total |\n")
			b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		}
		v := o.Waterfall.View()
		fmt.Fprintf(b, "| %s | %.1f |", r.Spec, r.Load*100)
		for _, st := range v.Stages {
			fmt.Fprintf(b, " %.2f |", st.Mean)
		}
		fmt.Fprintf(b, " %.2f |\n", v.MeanLatency)
	}
}

func pct(part, whole int64) float64 { return float64(part) * 100 / float64(whole) }

func writeBenchSection(b *bytes.Buffer, bench *Bench) {
	fmt.Fprintf(b, "\n## Benchmarks — %s", bench.Path)
	if bench.BaselinePath != "" {
		fmt.Fprintf(b, " vs %s", bench.BaselinePath)
	}
	b.WriteString("\n\n")
	if len(bench.Order) == 0 {
		b.WriteString("No benchmark lines found.\n")
		return
	}
	hasAllocs := len(bench.Allocs) > 0
	header := "| Benchmark | ns/op |"
	rule := "|---|---:|"
	if bench.Base != nil {
		header = "| Benchmark | Baseline ns/op | Latest ns/op | Δ |"
		rule = "|---|---:|---:|---:|"
	}
	if hasAllocs {
		header += " B/op | Allocs/op |"
		rule += "---:|---:|"
	}
	b.WriteString(header + "\n" + rule + "\n")
	for _, name := range bench.Order {
		if bench.Base != nil {
			bv, ok := bench.Base[name]
			if ok && bv > 0 {
				delta := (bench.Latest[name] - bv) * 100 / bv
				fmt.Fprintf(b, "| %s | %.0f | %.0f | %+.1f%% |", name, bv, bench.Latest[name], delta)
			} else {
				fmt.Fprintf(b, "| %s | — | %.0f | — |", name, bench.Latest[name])
			}
		} else {
			fmt.Fprintf(b, "| %s | %.0f |", name, bench.Latest[name])
		}
		if hasAllocs {
			if e, ok := bench.Allocs[name]; ok {
				fmt.Fprintf(b, " %.0f | %.0f |", e.BytesPerOp, e.AllocsPerOp)
			} else {
				fmt.Fprintf(b, " — | — |")
			}
		}
		b.WriteString("\n")
	}
}
