// Package waterfall attributes every sampled packet's end-to-end latency to
// named lifecycle stages — source queueing, reservation/setup wait,
// arbitration, credit/buffer stalls, reservation-scheduled residence, link
// traversal, and ejection drain — and folds the per-packet stage vectors into
// per-stage latency histograms with batch-means confidence intervals.
//
// The ledger follows the repo's probe idiom: a nil *Ledger is valid and every
// method on it is a no-op, so instrumented hot paths cost one nil test (plus
// the packet's Sampled check at the call site) when collection is off, with
// zero allocation. Attribution is conservative by construction: the stage
// components of a delivered packet sum exactly to its measured latency
// (delivered − created), a property the Strict mode — armed from the spec's
// Check flag — asserts per packet.
//
// How the telescoping works: the head flit's timeline is cut at instants the
// fabrics already pass through (injection start, first wire entry, per-hop
// arrival and departure, ejection, delivery). Each interval between cuts is
// assigned wholesale to one stage, except per-hop residence, which is split
// between Arb/Stall (per-cycle blocked marks recorded by the router while the
// head waits) with the unmarked remainder — time queued behind a predecessor
// packet — falling to Stall. Tail-flit serialization after the head ejects is
// the Drain stage, so only the head flit is ever tracked.
package waterfall

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"frfc/internal/sim"
	"frfc/internal/stats"
	"frfc/internal/topology"
	"frfc/internal/trace"
)

// Stage names one latency component. The seven stages partition a packet's
// creation-to-delivery interval.
type Stage uint8

// The stages, in timeline order.
const (
	// StageQueue is source queueing: packet creation to the cycle its
	// (final) injection attempt started. Failed earlier transmission
	// attempts of a retried packet land here too — everything before the
	// delivering attempt took over counts as waiting at the source.
	StageQueue Stage = iota
	// StageReserve is injection setup: injection start to the head flit
	// entering the injection wire. For flit reservation this is the wait
	// for a feasible reserved departure slot; for circuit switching the
	// probe round-trip that sets the path up; for the buffered baselines
	// the wait for source credit.
	StageReserve
	// StageArb is cycles the head spent pipeline-bound or losing switch
	// arbitration inside routers.
	StageArb
	// StageStall is cycles the head spent blocked on credits, free
	// buffers, store-and-forward assembly, or queued behind a predecessor
	// packet.
	StageStall
	// StageSched is flit reservation's buffered residence: cycles between
	// a data flit's arrival and its pre-reserved departure slot. The
	// paper's bypass claim shows up as this stage collapsing toward zero.
	StageSched
	// StageLink is wire time: cycles the head spent on injection, router
	// and ejection links.
	StageLink
	// StageDrain is tail serialization: head ejection to delivery of the
	// packet's last flit.
	StageDrain

	// NumStages is the number of stages.
	NumStages = 7
)

var stageNames = [NumStages]string{"queue", "reserve", "arb", "stall", "sched", "link", "drain"}

// String returns the stage's short name as used in exports.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// state is the in-flight ledger entry for one sampled packet's head flit.
type state struct {
	created    sim.Cycle
	injStart   sim.Cycle
	lastDepart sim.Cycle // cycle the head last entered a wire
	arriveAt   sim.Cycle // arrival cycle at the current router
	headEject  sim.Cycle
	blockedAt  sim.Cycle // last cycle a blocked mark landed (one per cycle)
	stages     [NumStages]int64
	marks      int64 // blocked marks since the current arrival
	attempt    uint8
	started    bool // InjectStart seen for this attempt
	onWire     bool // HeadWire seen (head has left the source NI)
	inRouter   bool // between Arrive and Depart
	ejected    bool // head reached the sink
}

// Ledger tracks sampled packets in flight and accumulates delivered packets'
// stage vectors. All methods are no-ops on a nil ledger. Call sites must gate
// on the packet's Sampled flag — the ledger itself never sees unsampled
// traffic, which keeps its map small and the enabled-path cost proportional
// to the sample, not the load.
type Ledger struct {
	// Strict asserts conservation per delivered packet (stage components
	// sum exactly to measured latency) and non-negative stall residuals,
	// panicking on violation. Armed from the spec's Check flag.
	Strict bool
	// Tr, when set, receives one KindStage event per stage per delivered
	// packet, which WriteChrome renders as stacked stage sub-spans.
	Tr *trace.Tracer

	pkts map[uint64]*state

	lat     [NumStages]*stats.LatencyStats
	bm      [NumStages]stats.BatchMeans
	totals  [NumStages]int64
	total   int64 // Σ measured latency over delivered packets
	packets int64
}

// New returns an empty ledger.
func New() *Ledger {
	l := &Ledger{pkts: make(map[uint64]*state)}
	for i := range l.lat {
		l.lat[i] = stats.NewLatencyStats()
	}
	return l
}

// InjectStart records packet pid beginning injection attempt attempt at cycle
// now: the Queue stage closes at now. Re-offers within one attempt are
// idempotent (the first call wins); a new attempt resets the entry, folding
// the failed attempt's time back into Queue.
func (l *Ledger) InjectStart(pid uint64, attempt uint8, created, now sim.Cycle) {
	if l == nil {
		return
	}
	st := l.pkts[pid]
	if st == nil {
		st = &state{}
		l.pkts[pid] = st
	} else if st.started && st.attempt == attempt {
		return
	}
	*st = state{created: created, injStart: now, attempt: attempt, started: true, blockedAt: -1}
	st.stages[StageQueue] = int64(now - created)
}

// HeadWire records the head flit entering the injection wire: the Reserve
// stage closes at now.
func (l *Ledger) HeadWire(pid uint64, attempt uint8, now sim.Cycle) {
	if l == nil {
		return
	}
	st := l.pkts[pid]
	if st == nil || !st.started || st.attempt != attempt || st.onWire {
		return
	}
	st.stages[StageReserve] = int64(now - st.injStart)
	st.lastDepart = now
	st.onWire = true
}

// Arrive records the head flit reaching a router input at cycle now: the wire
// hop since the last departure is charged to Link.
func (l *Ledger) Arrive(pid uint64, attempt uint8, now sim.Cycle) {
	if l == nil {
		return
	}
	st := l.pkts[pid]
	if st == nil || !st.onWire || st.attempt != attempt || st.inRouter {
		return
	}
	st.stages[StageLink] += int64(now - st.lastDepart)
	st.arriveAt = now
	st.marks = 0
	st.blockedAt = -1
	st.inRouter = true
}

// Blocked charges one cycle of the head's current router residence to stage
// (StageArb or StageStall). At most one mark lands per cycle per packet; the
// first caller wins. Residence cycles never marked are charged to Stall at
// departure.
func (l *Ledger) Blocked(pid uint64, stage Stage, now sim.Cycle) {
	if l == nil {
		return
	}
	st := l.pkts[pid]
	if st == nil || !st.inRouter || st.blockedAt == now {
		return
	}
	st.blockedAt = now
	st.stages[stage]++
	st.marks++
}

// Depart records the head flit leaving its current router onto an output wire
// at cycle now. When sched is true (flit reservation) the whole residence is
// charged to Sched — buffered time waiting for the pre-reserved departure
// slot; a bypassed flit departs the cycle it arrived and contributes zero.
// Otherwise the residence not covered by Blocked marks is charged to Stall.
func (l *Ledger) Depart(pid uint64, attempt uint8, now sim.Cycle, sched bool) {
	if l == nil {
		return
	}
	st := l.pkts[pid]
	if st == nil || !st.inRouter || st.attempt != attempt {
		return
	}
	residence := int64(now - st.arriveAt)
	if sched {
		st.stages[StageSched] += residence
	} else {
		drift := residence - st.marks
		if drift < 0 {
			if l.Strict {
				panic(fmt.Sprintf("waterfall: packet %d over-attributed at departure: residence %d < %d marks", pid, residence, st.marks))
			}
			drift = 0 // keep the vector sane; conservation re-checked at delivery
		}
		st.stages[StageStall] += drift
	}
	st.lastDepart = now
	st.inRouter = false
}

// Eject records the head flit reaching the destination sink at cycle now: the
// final wire hop is charged to Link and the Drain stage opens.
func (l *Ledger) Eject(pid uint64, attempt uint8, now sim.Cycle) {
	if l == nil {
		return
	}
	st := l.pkts[pid]
	if st == nil || !st.onWire || st.attempt != attempt || st.ejected {
		return
	}
	st.stages[StageLink] += int64(now - st.lastDepart)
	st.headEject = now
	st.inRouter = false
	st.ejected = true
}

// Delivered closes packet pid's ledger entry at delivery cycle now, asserting
// conservation under Strict, folding the stage vector into the aggregates,
// and emitting stage trace events when a tracer is attached. Unknown packets
// (never tracked, or already closed) are ignored.
func (l *Ledger) Delivered(pid uint64, now sim.Cycle) {
	if l == nil {
		return
	}
	st := l.pkts[pid]
	if st == nil {
		return
	}
	delete(l.pkts, pid)
	if !st.ejected {
		if l.Strict {
			panic(fmt.Sprintf("waterfall: packet %d delivered at cycle %d without a head-flit ejection record", pid, now))
		}
		return
	}
	st.stages[StageDrain] = int64(now - st.headEject)
	total := int64(now - st.created)
	var sum int64
	for _, c := range st.stages {
		sum += c
	}
	if l.Strict && sum != total {
		panic(fmt.Sprintf("waterfall: packet %d stage components sum to %d, measured latency is %d (stages %v)", pid, sum, total, st.stages))
	}
	for i, c := range st.stages {
		l.lat[i].Record(sim.Cycle(c))
		l.bm[i].Add(float64(c))
		l.totals[i] += c
	}
	l.total += total
	l.packets++
	if l.Tr != nil {
		for i, c := range st.stages {
			l.Tr.Record(trace.Event{
				Cycle: st.created, Kind: trace.KindStage, Node: -1, Port: -1,
				Packet: pid, Seq: int32(i), Arg: c, Attempt: st.attempt,
			})
		}
	}
}

// Drop discards packet pid's ledger entry: the packet was abandoned, lost
// without retry, or failed fast as unreachable, so no latency was measured.
func (l *Ledger) Drop(pid uint64) {
	if l == nil {
		return
	}
	delete(l.pkts, pid)
}

// InFlight reports how many tracked packets have not yet closed.
func (l *Ledger) InFlight() int {
	if l == nil {
		return 0
	}
	return len(l.pkts)
}

// Totals is a ledger's deterministic summary, the part of a waterfall that may
// enter an experiment result: Packets delivered packets decomposed, their
// summed creation-to-delivery latency Total, and the cycles attributed to each
// stage, which partition Total exactly (asserted per packet under Strict).
// Every value is a function of the simulation alone, so it is identical for
// any worker count, and summaries merge by summing.
type Totals struct {
	Packets int64 `json:"packets"`
	Total   int64 `json:"total"`
	Queue   int64 `json:"queue"`
	Reserve int64 `json:"reserve"`
	Arb     int64 `json:"arb"`
	Stall   int64 `json:"stall"`
	Sched   int64 `json:"sched"`
	Link    int64 `json:"link"`
	Drain   int64 `json:"drain"`
}

// Totals summarizes the packets folded in so far; the zero Totals on a nil
// ledger.
func (l *Ledger) Totals() Totals {
	if l == nil {
		return Totals{}
	}
	t := &l.totals
	return Totals{
		Packets: l.packets, Total: l.total,
		Queue: t[StageQueue], Reserve: t[StageReserve], Arb: t[StageArb], Stall: t[StageStall],
		Sched: t[StageSched], Link: t[StageLink], Drain: t[StageDrain],
	}
}

// Stages lists the per-stage cycle sums in timeline order, indexable by Stage.
func (t Totals) Stages() [NumStages]int64 {
	return [NumStages]int64{t.Queue, t.Reserve, t.Arb, t.Stall, t.Sched, t.Link, t.Drain}
}

// Add folds another summary into this one.
func (t *Totals) Add(o Totals) {
	t.Packets += o.Packets
	t.Total += o.Total
	t.Queue += o.Queue
	t.Reserve += o.Reserve
	t.Arb += o.Arb
	t.Stall += o.Stall
	t.Sched += o.Sched
	t.Link += o.Link
	t.Drain += o.Drain
}

// StageStats returns the per-stage latency accumulator (histogram, mean,
// min/max), or nil on a nil ledger.
func (l *Ledger) StageStats(s Stage) *stats.LatencyStats {
	if l == nil {
		return nil
	}
	return l.lat[s]
}

// StageCI95 reports the batch-means 95% half-width for one stage's mean,
// honest under the strong serial correlation of consecutive packets.
func (l *Ledger) StageCI95(s Stage) float64 {
	if l == nil {
		return 0
	}
	half, _ := l.bm[s].CI95(0)
	return half
}

// StageView is one stage's row in a waterfall view.
type StageView struct {
	Stage  string  `json:"stage"`
	Cycles int64   `json:"cycles"`
	Mean   float64 `json:"mean"`
	Share  float64 `json:"share"`
}

// View is a Totals rendered for display: what /status serves and Summary
// prints. Totals is the form that is stored and merged.
type View struct {
	Packets     int64       `json:"packets"`
	TotalCycles int64       `json:"total_cycles"`
	MeanLatency float64     `json:"mean_latency"`
	Stages      []StageView `json:"stages"`
}

// View renders the summary — one ledger's, or the sum over the jobs of a
// campaign — with per-packet means and shares.
func (t Totals) View() View {
	v := View{Packets: t.Packets, TotalCycles: t.Total, Stages: make([]StageView, 0, NumStages)}
	if t.Packets > 0 {
		v.MeanLatency = float64(t.Total) / float64(t.Packets)
	}
	for i, c := range t.Stages() {
		sv := StageView{Stage: stageNames[i], Cycles: c}
		if t.Packets > 0 {
			sv.Mean = float64(c) / float64(t.Packets)
		}
		if t.Total > 0 {
			sv.Share = float64(c) / float64(t.Total)
		}
		v.Stages = append(v.Stages, sv)
	}
	return v
}

// View snapshots the ledger's aggregates.
func (l *Ledger) View() View { return l.Totals().View() }

// Summary renders a one-line breakdown: per-stage mean cycles with shares,
// summing to the mean measured latency.
func (l *Ledger) Summary() string {
	v := l.View()
	var b strings.Builder
	fmt.Fprintf(&b, "waterfall: %d packets, mean %.1f cycles = ", v.Packets, v.MeanLatency)
	for i, sv := range v.Stages {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%s %.2f (%.0f%%)", sv.Stage, sv.Mean, sv.Share*100)
	}
	return b.String()
}

// WriteJSON writes the full per-stage breakdown — totals, means, batch-means
// CIs and histogram quantiles — as one JSON object.
func (l *Ledger) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	v := l.View()
	fmt.Fprintf(bw, "{\n  \"packets\": %d,\n  \"total_cycles\": %d,\n  \"mean_latency\": %s,\n  \"stages\": [\n",
		v.Packets, v.TotalCycles, jsonFloat(v.MeanLatency))
	for i, sv := range v.Stages {
		s := Stage(i)
		var ci, p50, p95, p99 float64
		var min, max sim.Cycle
		if l != nil {
			ci = l.StageCI95(s)
			ls := l.lat[i]
			p50, p95, p99 = float64(ls.Quantile(0.50)), float64(ls.Quantile(0.95)), float64(ls.Quantile(0.99))
			min, max = ls.Min(), ls.Max()
		}
		fmt.Fprintf(bw, "    {\"stage\": %q, \"cycles\": %d, \"mean\": %s, \"share\": %s, \"ci95\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s, \"min\": %d, \"max\": %d}",
			sv.Stage, sv.Cycles, jsonFloat(sv.Mean), jsonFloat(sv.Share), jsonFloat(ci),
			jsonFloat(p50), jsonFloat(p95), jsonFloat(p99), int64(min), int64(max))
		if i < len(v.Stages)-1 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
	}
	bw.WriteString("  ]\n}\n")
	return bw.Flush()
}

// WriteCSV writes one row per stage: stage, packets, cycles, mean, share,
// ci95, p50, p95, p99, min, max.
func (l *Ledger) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"stage", "packets", "cycles", "mean", "share", "ci95", "p50", "p95", "p99", "min", "max"}); err != nil {
		return err
	}
	v := l.View()
	for i, sv := range v.Stages {
		s := Stage(i)
		var ci float64
		var p50, p95, p99, min, max sim.Cycle
		if l != nil {
			ci = l.StageCI95(s)
			ls := l.lat[i]
			p50, p95, p99 = ls.Quantile(0.50), ls.Quantile(0.95), ls.Quantile(0.99)
			min, max = ls.Min(), ls.Max()
		}
		rec := []string{
			sv.Stage,
			strconv.FormatInt(v.Packets, 10),
			strconv.FormatInt(sv.Cycles, 10),
			strconv.FormatFloat(sv.Mean, 'g', 8, 64),
			strconv.FormatFloat(sv.Share, 'g', 6, 64),
			strconv.FormatFloat(ci, 'g', 6, 64),
			strconv.FormatInt(int64(p50), 10),
			strconv.FormatInt(int64(p95), 10),
			strconv.FormatInt(int64(p99), 10),
			strconv.FormatInt(int64(min), 10),
			strconv.FormatInt(int64(max), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePrometheus writes the view in Prometheus text exposition format under
// the frfc_latency_stage_* namespace.
func (v View) WritePrometheus(w io.Writer) error {
	e := topology.NewExposition(w)
	e.Scalar("frfc_waterfall_packets", "gauge", "Delivered packets folded into the latency waterfall.", v.Packets)
	e.Family("frfc_latency_stage_cycles_total", "gauge", "Summed cycles attributed to each latency stage.")
	for _, sv := range v.Stages {
		e.Sample(topology.Labels("stage", sv.Stage), sv.Cycles)
	}
	e.Family("frfc_latency_stage_mean", "gauge", "Mean cycles per packet attributed to each latency stage.")
	for _, sv := range v.Stages {
		e.Sample(topology.Labels("stage", sv.Stage), sv.Mean)
	}
	return e.Err()
}

// jsonFloat renders a float for JSON without exponent surprises for the
// common small values.
func jsonFloat(f float64) string { return strconv.FormatFloat(f, 'g', 8, 64) }
