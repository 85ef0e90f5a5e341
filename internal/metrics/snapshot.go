package metrics

import (
	"io"

	"frfc/internal/profile"
	"frfc/internal/sim"
	"frfc/internal/waterfall"
)

// What a holder of a probe does with it — the run loop that stamps and
// publishes it, the status server that merges and serves it, the Result that
// carries its summary — is in this file, each operation walking the probe's
// members once, so that no holder names a member. A new collector is an
// option of NewProbe, a member of Probe, a line in each function below that
// applies to it, and, when it has a deterministic summary, a member of
// Observed. The tracer and the series are one run's record, written out by
// the command that armed them: no campaign merges them and no live view
// serves them, so neither has a line in Snapshot or Merge.

// Observed is the sidecar of deterministic observer summaries a Result carries,
// one optional member per observer: Activity when the run carried a profile
// registry, Waterfall when it carried a stage ledger. A nil member means that
// observer was not armed, which a zero summary could not say: a saturated
// point that delivered nothing has a Waterfall of zeros. Each summary is
// declared by the package that computes it and is a function of the
// simulation alone, so observed results stay byte-identical across worker
// counts. A new observer adds a member here; the fields of Result, and so the
// job hash, do not change.
type Observed struct {
	Activity  *profile.Activity `json:",omitempty"`
	Waterfall *waterfall.Totals `json:",omitempty"`
}

// Observed summarizes what the probe's deterministic observers saw, nil when
// it carries none of them.
func (p *Probe) Observed() *Observed {
	if p == nil || (p.Prof == nil && p.WF == nil) {
		return nil
	}
	o := &Observed{}
	if p.Prof != nil {
		a := p.Prof.Activity()
		o.Activity = &a
	}
	if p.WF != nil {
		t := p.WF.Totals()
		o.Waterfall = &t
	}
	return o
}

// Stamp records the end of the run on the probe's collectors, once the last
// cycle has run: the run length on the registries, and the final, usually
// partial, window on the series — packets and meanLatency are the run's
// delivered-sample count and running mean latency — so that the series'
// ejected counts sum to the run's total ejected flits.
func (p *Probe) Stamp(now sim.Cycle, packets int64, meanLatency float64) {
	if p == nil {
		return
	}
	if p.Reg != nil {
		p.Reg.Cycles = now
	}
	p.Series.Observe(now, p.Reg, packets, meanLatency)
	if p.Prof != nil {
		p.Prof.Cycles = now
	}
}

// Snapshot is what a probe had collected at one instant, detached from the
// run still feeding it — deep copies of the registries, and the ledger's
// mergeable form, its Totals — and the aggregate a campaign's probes merge
// into. A nil member is a collector not carried; the zero Snapshot is empty.
type Snapshot struct {
	Reg       *Registry
	Prof      *profile.Registry
	Waterfall *waterfall.Totals
}

// Snapshot copies whatever the probe carries, the registries stamped with the
// cycle the copy was taken at. The copy shares nothing with the probe, so it
// may be retained or served from another goroutine.
func (p *Probe) Snapshot(now sim.Cycle) Snapshot {
	var s Snapshot
	if p == nil {
		return s
	}
	if p.Reg != nil {
		s.Reg = &Registry{Grid: p.Reg.Clone()}
		s.Reg.Cycles = now
	}
	if p.Prof != nil {
		prof := *p.Prof
		prof.Grid = p.Prof.Clone()
		prof.Cycles = now
		s.Prof = &prof
	}
	if p.WF != nil {
		t := p.WF.Totals()
		s.Waterfall = &t
	}
	return s
}

// Merge folds what a finished run's probe collected into the aggregate:
// registries merge node for node, stage totals sum. The probe is only read.
func (s *Snapshot) Merge(p *Probe) {
	if p == nil {
		return
	}
	if p.Reg != nil {
		if s.Reg == nil {
			s.Reg = NewRegistry(p.Reg.Epoch)
		}
		s.Reg.Merge(p.Reg)
	}
	if p.Prof != nil {
		if s.Prof == nil {
			s.Prof = profile.NewRegistry(p.Prof.Epoch)
		}
		s.Prof.Merge(p.Prof)
	}
	if t := p.WF.Totals(); t.Packets > 0 {
		if s.Waterfall == nil {
			s.Waterfall = &waterfall.Totals{}
		}
		s.Waterfall.Add(t)
	}
}

// WritePrometheus writes each collector of the snapshot in Prometheus text
// exposition format, one after the other.
func (s *Snapshot) WritePrometheus(w io.Writer) (err error) {
	if s.Reg != nil {
		err = s.Reg.WritePrometheus(w)
	}
	if s.Prof != nil && err == nil {
		err = s.Prof.WritePrometheus(w)
	}
	if s.Waterfall != nil && err == nil {
		err = s.Waterfall.View().WritePrometheus(w)
	}
	return err
}

// View is a snapshot rendered for display — the blocks /status serves, each
// declared by its collector's package and absent without that collector. The
// counter registry has no block; /metrics serves it.
type View struct {
	Profile   *profile.View   `json:"profile,omitempty"`
	Waterfall *waterfall.View `json:"waterfall,omitempty"`
}

// View renders the snapshot.
func (s *Snapshot) View() View {
	var v View
	if s.Prof != nil {
		pv := s.Prof.View()
		v.Profile = &pv
	}
	if s.Waterfall != nil {
		wv := s.Waterfall.View()
		v.Waterfall = &wv
	}
	return v
}
