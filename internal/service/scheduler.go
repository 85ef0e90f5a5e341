package service

import "sync"

// scheduler multiplexes the jobs of N concurrent campaigns over one shared
// worker pool with smooth weighted round-robin: on every pick each eligible
// campaign's credit grows by its weight and the highest credit wins (ties to
// the earliest submission), so a campaign with weight w receives w/Σw of the
// dispatch slots while it has work — a 10,000-job sweep cannot starve a
// 6-job probe, because the probe keeps winning its share of picks and
// drains first.
//
// Fairness is purely about *when* jobs run. Every job has a network to itself
// for the run, reset from the job's seed to its constructed state, so
// dispatch order can never change any job's result — the
// harness's bit-identical guarantee holds under any interleaving.
type scheduler struct {
	mu        sync.Mutex
	cond      *sync.Cond
	campaigns []*Campaign // submission order; drained campaigns removed
	eligible  []*Campaign // pick's scratch list, reused under mu
	closed    bool
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// add registers a campaign's queue with the scheduler and wakes workers.
func (s *scheduler) add(c *Campaign) {
	s.mu.Lock()
	s.campaigns = append(s.campaigns, c)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// active returns the campaigns that still have queued or in-flight work, in
// submission order — what admission control and the watchdog walk instead of
// everything the daemon has ever served.
func (s *scheduler) active() []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Campaign(nil), s.campaigns...)
}

// next blocks until a job is available (returning the campaign and the job's
// index, with the campaign's in-flight count already incremented) or the
// scheduler is closed (ok=false). Eligibility: the campaign has queued jobs
// and is under its in-flight cap.
func (s *scheduler) next() (c *Campaign, idx int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, 0, false
		}
		if c, idx, ok := s.pick(); ok {
			return c, idx, true
		}
		s.cond.Wait()
	}
}

// pick runs one round of smooth WRR over the eligible campaigns. Caller
// holds s.mu.
func (s *scheduler) pick() (*Campaign, int, bool) {
	eligible := s.eligible[:0]
	total := 0
	for _, c := range s.campaigns {
		c.mu.Lock()
		ok := len(c.queue) > 0 && (c.maxInflight == 0 || c.inflight < c.maxInflight)
		c.mu.Unlock()
		if ok {
			eligible = append(eligible, c)
			total += c.weight
		}
	}
	s.eligible = eligible
	if len(eligible) == 0 {
		return nil, 0, false
	}
	var best *Campaign
	for _, c := range eligible {
		c.wrr += c.weight
		if best == nil || c.wrr > best.wrr {
			best = c
		}
	}
	best.wrr -= total

	best.mu.Lock()
	idx := best.queue[0]
	best.queue = best.queue[1:]
	if len(best.queue) == 0 {
		best.queue = nil // a drained campaign keeps no queue array
	}
	best.inflight++
	if best.state == StateQueued {
		best.state = StateRunning
	}
	best.mu.Unlock()
	return best, idx, true
}

// retire drops a campaign with no work left from the rotation. Caller holds
// s.mu.
func (s *scheduler) retire(c *Campaign) {
	for i, cc := range s.campaigns {
		if cc == c {
			s.campaigns = append(s.campaigns[:i], s.campaigns[i+1:]...)
			return
		}
	}
}

// release returns a worker's slot after it records a job outcome, retiring
// the campaign from the rotation once it has neither queued nor in-flight
// work, and wakes workers that may now be under a freed in-flight cap.
func (s *scheduler) release(c *Campaign) {
	s.mu.Lock()
	c.mu.Lock()
	c.inflight--
	drained := len(c.queue) == 0 && c.inflight == 0
	c.mu.Unlock()
	if drained {
		s.retire(c)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// drain empties a campaign's queue (for cancellation), returning the
// undispatched job indices. In-flight jobs are unaffected; their contexts
// carry the cancel.
func (s *scheduler) drain(c *Campaign) []int {
	s.mu.Lock()
	c.mu.Lock()
	idxs := c.queue
	c.queue = nil
	stillListed := c.inflight > 0
	c.mu.Unlock()
	if !stillListed {
		s.retire(c)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	return idxs
}

// close wakes every worker to exit after its current job.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}
