// Package trace is a cycle-accurate, flit-level event tracer. Networks
// record compact events (inject, route, reserve, park, traverse, eject,
// retry, wedge) into a bounded ring buffer with no allocation per event; the
// buffer is then exported as Chrome trace-event JSON, which Perfetto
// (https://ui.perfetto.dev) and chrome://tracing load directly. Exports can
// be filtered by router, packet ID, or cycle window.
//
// A nil *Tracer is valid and records nothing, so instrumented hot paths cost
// a single nil check when tracing is disabled.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"frfc/internal/sim"
	"frfc/internal/topology"
)

// Kind classifies one traced event.
type Kind uint8

// Event kinds. The set mirrors a flit's life: injection at the source NI,
// per-hop routing and reservation, parking (data overtook its control flit),
// link traversal, ejection at the destination, end-to-end retry, and the
// watchdog's wedge verdict. KindStage is emitted by the latency waterfall at
// delivery: one event per stage, Seq holding the stage index and Arg the
// cycles attributed to it, with Cycle set to the packet's creation cycle so
// WriteChrome can render the stages as a stacked span over the packet's
// lifetime.
const (
	KindInject Kind = iota
	KindRoute
	KindReserve
	KindPark
	KindTraverse
	KindEject
	KindRetry
	KindWedge
	KindStage
	numKinds
)

// String returns the event-kind name used in trace output.
func (k Kind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindRoute:
		return "route"
	case KindReserve:
		return "reserve"
	case KindPark:
		return "park"
	case KindTraverse:
		return "traverse"
	case KindEject:
		return "eject"
	case KindRetry:
		return "retry"
	case KindWedge:
		return "wedge"
	case KindStage:
		return "stage"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one traced occurrence. Node and Port identify where it happened
// (Port < 0 when not meaningful), Packet/Seq/Attempt identify the flit
// involved (Packet 0 when none), and Arg carries kind-specific data — for
// KindReserve it is the reserved departure cycle.
type Event struct {
	Cycle   sim.Cycle
	Arg     int64
	Packet  uint64
	Seq     int32
	Node    int32
	Port    int8
	Attempt uint8
	Kind    Kind
}

// Tracer is a bounded ring buffer of events. When full, the oldest events
// are overwritten, keeping the most recent window of activity — the part
// that matters when diagnosing a stall or a saturation onset.
type Tracer struct {
	buf []Event
	n   uint64 // total events ever recorded
}

// DefaultCapacity is the event capacity used when New is given a
// non-positive one (¼M events ≈ 12 MB).
const DefaultCapacity = 1 << 18

// New returns a tracer holding at most capacity events; capacity <= 0 uses
// DefaultCapacity.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest when the buffer is full.
// It is safe on a nil tracer (no-op) and never allocates.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.buf[t.n%uint64(len(t.buf))] = ev
	t.n++
}

// Len reports how many events the buffer currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.n < uint64(len(t.buf)) {
		return int(t.n)
	}
	return len(t.buf)
}

// Total reports how many events were ever recorded, including overwritten
// ones.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped reports how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if t.n <= uint64(len(t.buf)) {
		return 0
	}
	return t.n - uint64(len(t.buf))
}

// Events returns the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, 0, t.Len())
	start := uint64(0)
	if t.n > uint64(len(t.buf)) {
		start = t.n - uint64(len(t.buf))
	}
	for i := start; i < t.n; i++ {
		out = append(out, t.buf[i%uint64(len(t.buf))])
	}
	return out
}

// Filter restricts an export. The zero value—with Node set to -1—selects
// everything; any combination of the fields narrows it.
type Filter struct {
	// Node restricts to events at one router (< 0 = all nodes).
	Node int32
	// Packet restricts to one packet's events (0 = all packets). Events
	// with no packet (wedge) are kept only when Packet is 0.
	Packet uint64
	// From and To bound the cycle window, inclusive; To <= 0 means
	// unbounded above.
	From, To sim.Cycle
}

// All is the filter that keeps every event.
var All = Filter{Node: -1}

// keep reports whether ev passes the filter.
func (f Filter) keep(ev Event) bool {
	if f.Node >= 0 && ev.Node != f.Node {
		return false
	}
	if f.Packet != 0 && ev.Packet != f.Packet {
		return false
	}
	if ev.Cycle < f.From {
		return false
	}
	if f.To > 0 && ev.Cycle > f.To {
		return false
	}
	return true
}

// packetsPid is the synthetic process ID under which per-packet lifetime
// spans are emitted, distinct from any realistic router ID.
const packetsPid = 1 << 20

// stageSpanNames labels KindStage events by Seq in trace exports. The order
// mirrors the waterfall's stage order (internal/waterfall), which asserts the
// two stay in sync.
var stageSpanNames = []string{"queue", "reserve", "arb", "stall", "sched", "link", "drain"}

// StageSpanName returns the label WriteChrome uses for a KindStage event
// with the given Seq.
func StageSpanName(seq int32) string {
	if seq >= 0 && int(seq) < len(stageSpanNames) {
		return stageSpanNames[seq]
	}
	return fmt.Sprintf("stage%d", seq)
}

// WriteChrome exports the filtered events as Chrome trace-event JSON. One
// simulated cycle maps to one microsecond of trace time. Every event becomes
// a thread-scoped instant on pid=router, tid=port; additionally each packet
// appearing in the filtered set gets one complete ("X") span from its first
// to its last filtered event under a synthetic "packets" process, so packet
// lifetimes render as bars in Perfetto.
//
// radix, when positive, names router processes by mesh coordinate; 0 labels
// them by ID only.
func (t *Tracer) WriteChrome(w io.Writer, radix int, f Filter) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	type span struct{ from, to sim.Cycle }
	type stageSet struct {
		created sim.Cycle
		cycles  []int64
	}
	nodes := map[int32]bool{}
	spans := map[uint64]*span{}
	stages := map[uint64]*stageSet{}
	events := t.Events()
	for _, ev := range events {
		if !f.keep(ev) {
			continue
		}
		if ev.Kind == KindStage {
			ss := stages[ev.Packet]
			if ss == nil {
				ss = &stageSet{created: ev.Cycle}
				stages[ev.Packet] = ss
			}
			for int(ev.Seq) >= len(ss.cycles) {
				ss.cycles = append(ss.cycles, 0)
			}
			ss.cycles[ev.Seq] = ev.Arg
			continue
		}
		nodes[ev.Node] = true
		if ev.Packet != 0 {
			s := spans[ev.Packet]
			if s == nil {
				spans[ev.Packet] = &span{from: ev.Cycle, to: ev.Cycle}
			} else {
				if ev.Cycle < s.from {
					s.from = ev.Cycle
				}
				if ev.Cycle > s.to {
					s.to = ev.Cycle
				}
			}
		}
	}

	// Process metadata: name each router, plus the synthetic packets row.
	ids := make([]int32, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		name := fmt.Sprintf("router %d", id)
		if radix > 0 {
			c := topology.CoordOf(int(id), radix)
			name = fmt.Sprintf("router %d (%d,%d)", id, c.X, c.Y)
		}
		emit(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":"%s"}}`, id, name)
	}
	if len(spans) > 0 || len(stages) > 0 {
		emit(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":"packets"}}`, packetsPid)
	}

	for _, ev := range events {
		if !f.keep(ev) || ev.Kind == KindStage {
			continue
		}
		port := ev.Port
		if port < 0 {
			port = 0
		}
		emit(`{"ph":"i","s":"t","name":"%s","cat":"flit","ts":%d,"pid":%d,"tid":%d,"args":{"pkt":%d,"seq":%d,"attempt":%d,"port":%d,"arg":%d}}`,
			ev.Kind, int64(ev.Cycle), ev.Node, port, ev.Packet, ev.Seq, ev.Attempt, ev.Port, ev.Arg)
	}

	pkts := make([]uint64, 0, len(spans))
	for id := range spans {
		pkts = append(pkts, id)
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i] < pkts[j] })
	for _, id := range pkts {
		s := spans[id]
		dur := int64(s.to-s.from) + 1
		emit(`{"ph":"X","name":"pkt %d","cat":"packet","ts":%d,"dur":%d,"pid":%d,"tid":%d}`,
			id, int64(s.from), dur, packetsPid, id)
	}

	// Waterfall stage sub-spans: each packet's stages laid end to end from
	// its creation cycle, on the packet's own track, so Perfetto shows where
	// the cycles went inside the lifetime bar.
	staged := make([]uint64, 0, len(stages))
	for id := range stages {
		staged = append(staged, id)
	}
	sort.Slice(staged, func(i, j int) bool { return staged[i] < staged[j] })
	for _, id := range staged {
		ss := stages[id]
		ts := int64(ss.created)
		for seq, dur := range ss.cycles {
			if dur > 0 {
				emit(`{"ph":"X","name":"%s","cat":"stage","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"pkt":%d}}`,
					StageSpanName(int32(seq)), ts, dur, packetsPid, id)
			}
			ts += dur
		}
	}

	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
