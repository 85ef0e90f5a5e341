package frfc

import (
	"context"
	"io"

	"frfc/internal/experiment"
	"frfc/internal/metrics"
	"frfc/internal/profile"
	"frfc/internal/sim"
	"frfc/internal/timeseries"
	"frfc/internal/topology"
	"frfc/internal/trace"
)

// ObserverOptions selects what an Observer collects.
type ObserverOptions struct {
	// Metrics enables the per-router counter registry and occupancy
	// gauges; MetricsEpoch is the gauge sampling period in cycles (0 = a
	// sensible default).
	Metrics      bool
	MetricsEpoch int
	// Trace enables the flit-level event tracer; TraceCapacity bounds the
	// ring buffer in events (0 = a default of ~256k events), keeping the
	// newest when it overflows.
	Trace         bool
	TraceCapacity int
	// TimeSeries enables the per-epoch telemetry recorder: injected and
	// accepted flit rates, running mean latency, reservation hit/miss
	// counts, retries and aggregate buffer occupancy, one point per
	// MetricsEpoch. It implies Metrics (the recorder reads the registry).
	// TimeSeriesCapacity bounds the retained points, dropping the oldest
	// when exceeded; 0 keeps every epoch of the run.
	TimeSeries         bool
	TimeSeriesCapacity int
	// Profile enables simulator self-profiling: per-component activity
	// accounting (total vs. active ticks per router, interface and sink),
	// per-phase work attribution inside the flit-reservation router
	// (reservation scheduling, arbitration, switch traversal, credit
	// handling), and per-epoch host allocation/GC deltas sampled every
	// MetricsEpoch cycles. Observation-only: the Result's measurement is
	// bit-identical with profiling on or off; the deterministic summary
	// lands in Result.Observed.Activity.
	Profile bool
	// Waterfall enables latency provenance: a per-packet stage ledger
	// decomposes every sampled packet's latency into source queueing,
	// reservation/setup, arbitration, stalls, scheduled residence, wire
	// time and drain, with the components summing exactly to the measured
	// latency. Observation-only: the Result's measurement is bit-identical
	// with the ledger on or off; the deterministic summary lands in
	// Result.Observed.Waterfall.
	Waterfall bool
}

// Observer collects per-router metrics, flit-level traces and/or a per-epoch
// time series from a run. Create one with NewObserver, pass it to
// RunObserved, then export with the Write methods. A zero-valued or nil
// Observer collects nothing and costs the simulation hot path one nil check
// per event site.
type Observer struct {
	probe  *metrics.Probe
	series *timeseries.Recorder
}

// NewObserver builds an observer per the options. With every option off it
// returns a valid observer that collects nothing.
func NewObserver(o ObserverOptions) *Observer {
	p := metrics.NewProbe(sim.Cycle(o.MetricsEpoch), o.Metrics || o.TimeSeries, o.Profile, o.Waterfall)
	if o.Trace {
		p.Tracer = trace.New(o.TraceCapacity)
	}
	obs := &Observer{probe: p}
	if o.TimeSeries {
		obs.series = timeseries.New(p.Reg.Epoch, o.TimeSeriesCapacity)
	}
	return obs
}

// instruments bundles the observer's collectors (and an optional live-status
// publisher) for the experiment layer.
func (o *Observer) instruments(st *StatusServer) experiment.Instruments {
	var ins experiment.Instruments
	if o != nil {
		ins.Probe = o.probe
		ins.Series = o.series
	}
	if st != nil {
		ins.Publish = st.srv.OnLive
	}
	return ins
}

// RunObserved is Run with the observer attached to the network for the whole
// simulation. A nil observer makes it identical to Run; instrumentation is
// observation-only, so the Result is bit-identical either way.
func RunObserved(s Spec, load float64, obs *Observer) Result {
	return RunLive(s, load, obs, nil)
}

// RunLive is RunObserved additionally publishing periodic live snapshots —
// run phase, sample progress, a clone of the counter registry — to a status
// server, whose /status and /metrics endpoints then track the run as it
// executes. Either obs or st may be nil. Publishing never perturbs the
// simulation: the Result stays bit-identical to Run.
func RunLive(s Spec, load float64, obs *Observer, st *StatusServer) Result {
	r, _ := experiment.RunInstrumented(context.Background(), s, load, obs.instruments(st))
	return r
}

// WriteMetricsJSON exports the collected registry as indented JSON. It
// errors when the observer was not collecting metrics.
func (o *Observer) WriteMetricsJSON(w io.Writer) error {
	if err := o.needMetrics(); err != nil {
		return err
	}
	return topology.WriteJSON(w, o.probe.Reg)
}

// WriteOccupancyCSV exports the k×k mean-buffer-occupancy heatmap (one row
// per mesh row, values in 0..1).
func (o *Observer) WriteOccupancyCSV(w io.Writer) error {
	if err := o.needMetrics(); err != nil {
		return err
	}
	return o.probe.Reg.WriteOccupancyCSV(w)
}

// WriteUtilizationCSV exports the k×k mean-link-utilization heatmap (data
// flits per cycle per direction link).
func (o *Observer) WriteUtilizationCSV(w io.Writer) error {
	if err := o.needMetrics(); err != nil {
		return err
	}
	return o.probe.Reg.WriteUtilizationCSV(w)
}

func (o *Observer) needMetrics() error {
	if o == nil || o.probe == nil || o.probe.Reg == nil {
		return errNoMetrics
	}
	return nil
}

// WriteProfileJSON exports the self-profiling registry as indented JSON:
// per-node per-component tick accounting, per-phase work attribution, and the
// per-epoch memory-sampling summary. It errors when the observer was not
// profiling.
func (o *Observer) WriteProfileJSON(w io.Writer) error {
	if err := o.needProfile(); err != nil {
		return err
	}
	return topology.WriteJSON(w, o.probe.Prof)
}

// WriteIdleCSV exports the k×k idle-fraction heatmap: per node, the fraction
// of router ticks that did no work (values in 0..1, rows = mesh rows).
func (o *Observer) WriteIdleCSV(w io.Writer) error {
	if err := o.needProfile(); err != nil {
		return err
	}
	return o.probe.Prof.WriteIdleCSV(w)
}

// ProfileSummary renders the collected profile as one human-readable line
// (overall idle fraction, per-component breakdown, phase attribution, memory
// per epoch). Empty when the observer was not profiling.
func (o *Observer) ProfileSummary() string {
	if o.needProfile() != nil {
		return ""
	}
	return o.probe.Prof.Summary()
}

// HotRouter is one router's activity ranking from HottestRouters: the node id,
// its mesh coordinates, and its active router ticks over total router ticks.
type HotRouter = profile.HotNode

// HottestRouters returns the n routers with the highest active-tick fraction,
// most active first — the hot-path attribution view. Nil when the observer
// was not profiling.
func (o *Observer) HottestRouters(n int) []HotRouter {
	if o.needProfile() != nil {
		return nil
	}
	return o.probe.Prof.Hottest(n)
}

func (o *Observer) needProfile() error {
	if o == nil || o.probe == nil || o.probe.Prof == nil {
		return errNoProfile
	}
	return nil
}

// WriteWaterfallJSON exports the latency waterfall as indented JSON: per
// stage, the summed cycles, the per-packet mean and share, the batch-means
// 95% confidence interval and exact quantiles. It errors when the observer
// was not collecting a waterfall.
func (o *Observer) WriteWaterfallJSON(w io.Writer) error {
	if err := o.needWaterfall(); err != nil {
		return err
	}
	return o.probe.WF.WriteJSON(w)
}

// WriteWaterfallCSV exports the latency waterfall as CSV, one row per stage
// (stage, packets, cycles, mean, share, ci95, p50, p95, p99, min, max).
func (o *Observer) WriteWaterfallCSV(w io.Writer) error {
	if err := o.needWaterfall(); err != nil {
		return err
	}
	return o.probe.WF.WriteCSV(w)
}

// WaterfallSummary renders the collected waterfall as one human-readable
// line: per-stage mean cycles with shares, summing to the mean measured
// latency. Empty when the observer was not collecting a waterfall.
func (o *Observer) WaterfallSummary() string {
	if o.needWaterfall() != nil {
		return ""
	}
	return o.probe.WF.Summary()
}

func (o *Observer) needWaterfall() error {
	if o == nil || o.probe == nil || o.probe.WF == nil {
		return errNoWaterfall
	}
	return nil
}

// WriteTimeSeriesCSV exports the per-epoch telemetry series as CSV, one row
// per epoch window. The ejected column is the accepted-flit count per window;
// over an unbounded recorder its sum equals the run's total ejected flits. It
// errors when the observer was not recording a time series.
func (o *Observer) WriteTimeSeriesCSV(w io.Writer) error {
	if o == nil || o.series == nil {
		return errNoTimeSeries
	}
	return o.series.WriteCSV(w)
}

// WriteTimeSeriesJSON exports the per-epoch telemetry series as one indented
// JSON object: the epoch length, the dropped-point count (bounded recorders)
// and the points in chronological order.
func (o *Observer) WriteTimeSeriesJSON(w io.Writer) error {
	if o == nil || o.series == nil {
		return errNoTimeSeries
	}
	return o.series.WriteJSON(w)
}

// TimeSeriesLen reports retained points and how many a bounded recorder
// discarded (0 dropped means the whole run is covered).
func (o *Observer) TimeSeriesLen() (points int, dropped int64) {
	if o == nil {
		return 0, 0
	}
	return o.series.Len(), o.series.Dropped()
}

// TraceFilter narrows a trace export.
type TraceFilter struct {
	// Node keeps only events at one router (< 0 = every router).
	Node int
	// Packet keeps only one packet's events (0 = all).
	Packet uint64
	// From and To bound the cycle window, inclusive; To <= 0 leaves it
	// unbounded above.
	From, To int64
}

// AllEvents keeps every traced event.
var AllEvents = TraceFilter{Node: -1}

// WriteTrace exports the collected flit trace as Chrome trace-event JSON,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing. It
// errors when the observer was not tracing.
func (o *Observer) WriteTrace(w io.Writer, f TraceFilter) error {
	if o == nil || o.probe == nil || o.probe.Tracer == nil {
		return errNoTrace
	}
	radix := 0
	if o.probe.Reg != nil {
		radix = o.probe.Reg.Radix
	}
	return o.probe.Tracer.WriteChrome(w, radix, trace.Filter{
		Node:   int32(f.Node),
		Packet: f.Packet,
		From:   sim.Cycle(f.From),
		To:     sim.Cycle(f.To),
	})
}

// TraceEventCount reports buffered events and how many were overwritten by
// ring wraparound (0 dropped means the whole run fit).
func (o *Observer) TraceEventCount() (buffered int, dropped uint64) {
	if o == nil || o.probe == nil {
		return 0, 0
	}
	return o.probe.Tracer.Len(), o.probe.Tracer.Dropped()
}

type observeErr string

func (e observeErr) Error() string { return string(e) }

const (
	errNoMetrics    = observeErr("frfc: observer was not collecting metrics (set ObserverOptions.Metrics)")
	errNoTrace      = observeErr("frfc: observer was not tracing (set ObserverOptions.Trace)")
	errNoTimeSeries = observeErr("frfc: observer was not recording a time series (set ObserverOptions.TimeSeries)")
	errNoProfile    = observeErr("frfc: observer was not profiling (set ObserverOptions.Profile)")
	errNoWaterfall  = observeErr("frfc: observer was not collecting a waterfall (set ObserverOptions.Waterfall)")
)
