package core

import (
	"fmt"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// poolSlot is one buffer of an input port's data pool. A slot is bound to a
// concrete flit only at arrival time (deferred allocation); its departure
// time and output port come from the reservation.
type poolSlot struct {
	flit     noc.DataFlit // zero while the slot is free, when nothing else of it is read
	departAt sim.Cycle    // sim.Never while the flit is parked unscheduled
	outPort  topology.Port
}

// reservation is one pending entry of the input reservation table: the data
// flit arriving at the cycle the entry is filed under leaves stay cycles
// later through outPort (stay 0 is the bypass). Fields are narrow because
// every input holds a horizon's worth of these cells.
type reservation struct {
	stay    int32
	outPort uint8
	// phantom marks a reservation installed by a corrupted control flit
	// that escaped the hop CRC: its schedule is garbage the real traffic
	// must never act on. The arriving data flit is not claimed by it — the
	// flit parks until timeout reclamation collects it — and the entry
	// itself dissolves unclaimed through the ordinary expiry path.
	phantom bool
}

// parkedFlit is one schedule-list entry: the arrival cycle that identifies an
// already-arrived, unscheduled flit, and the pool slot holding it.
type parkedFlit struct {
	arrival sim.Cycle
	slot    int
}

// inputPort is the data-network side of one router input: the buffer pool,
// the input reservation table (expected arrivals), and the schedule list
// (flits that arrived before their control flit finished scheduling,
// Section 3). Data flits are identified solely by their arrival cycle; the
// one-flit-per-cycle channel makes that identification unambiguous.
type inputPort struct {
	pool []poolSlot
	// occ has a bit set for every pool slot that holds a flit, and occupied
	// counts them.
	occ      occupancy
	occupied int
	// expected holds the reservation for each future arrival cycle. A
	// reservation is installed only once its departure is found, and a
	// departure is never earlier than the arrival nor later than
	// now+Horizon, so the keys stay inside [now, now+Horizon]. Each entry is
	// taken on its own cycle — claimed by its flit or dropped by its expiry
	// bit — so the window slides without visiting a cell.
	expected cycleRing[reservation]
	// parked is the schedule list in arrival order, with room for the whole
	// pool. Its keys are past cycles with no bound on their age, so it is
	// not a ring: at most len(pool) flits can wait, and a scan of that few
	// entries is cheaper than hashing.
	parked []parkedFlit
	// parkedTotal counts every flit that ever passed through the
	// schedule list, a measure of how often data overtakes its control
	// flit.
	parkedTotal int64
	// phantoms counts reservations installed by corrupted control flits
	// that escaped the hop CRC — table state no real traffic ever claims.
	phantoms int64
	// reclaimed counts parked flits collected by timeout reclamation:
	// their control flit was corrupted, so nothing would ever have
	// scheduled them out of the pool.
	reclaimed int64
	// condemned marks arrival cycles whose control stream a hard fault
	// destroyed: the data flit, if it still arrives, is dropped on sight
	// instead of parking forever on the schedule list. Only fault paths
	// write it; it stays nil, and unread, in a fault-free run.
	condemned map[sim.Cycle]bool

	dataIn    *sim.Pipe[noc.DataFlit]
	creditOut *sim.Pipe[noc.ReservationCredit]

	ledger *eagerLedger // non-nil when counting hypothetical eager-allocation transfers

	// cal is the node's due calendar, in which the input arms departBit at
	// every scheduled flit's departure and expireBit at every reservation's
	// and condemned arrival's cycle.
	cal *sim.Calendar

	// faultTolerant permits a reservation for a past arrival with no
	// parked flit — the flit was destroyed upstream and its late control
	// flit doesn't know. Without fault injection that situation is a
	// scheduling bug and panics.
	faultTolerant        bool
	departBit, expireBit uint32
}

// init lays out, in place on the arena's memory, input port port with the
// given pool size whose reservation table covers arrivals up to horizon
// cycles ahead and which arms its bits in cal; reset makes it usable.
func (p *inputPort) init(a *arena, port topology.Port, cal *sim.Calendar, buffers int, horizon sim.Cycle, ledger *eagerLedger, faultTolerant bool) {
	*p = inputPort{
		pool:          carve(&a.pool, buffers),
		occ:           carve(&a.words, occupancyWords(buffers)),
		parked:        carve(&a.parked, buffers)[:0],
		ledger:        ledger,
		faultTolerant: faultTolerant,
		cal:           cal,
		departBit:     1 << (departShift + uint(port)),
		expireBit:     1 << (expireShift + uint(port)),
	}
	p.expected.init(carve(&a.expected, int(horizon)+1))
}

// parkedIndex returns the schedule-list position of the flit that arrived at
// cycle ta, or -1.
func (p *inputPort) parkedIndex(ta sim.Cycle) int {
	for i := range p.parked {
		if p.parked[i].arrival == ta {
			return i
		}
	}
	return -1
}

// unpark removes schedule-list entry i, keeping arrival order, and returns
// the pool slot it named.
func (p *inputPort) unpark(i int) int {
	slot := p.parked[i].slot
	p.parked = append(p.parked[:i], p.parked[i+1:]...)
	return slot
}

// reserve records a reservation signal from the output scheduler: the data
// flit arriving at ta departs at departAt through outPort. If the flit has
// already arrived it is claimed from the schedule list; otherwise the input
// reservation table notes the expected arrival.
//
// phantom marks a reservation made by a corrupted control flit that escaped
// the hop CRC. Its announced schedule is garbage, so it must never capture
// real data: an already-parked flit stays parked (timeout reclamation
// collects it), and a future arrival gets a phantom table entry that
// dissolves unclaimed — the arriving flit parks beside it instead.
func (p *inputPort) reserve(now, ta, departAt sim.Cycle, outPort topology.Port, phantom bool) {
	p.expected.slide(now)
	if phantom {
		p.phantoms++
		if p.parkedIndex(ta) >= 0 || ta < now {
			return
		}
		// put never overwrites a real reservation with a phantom one.
		if p.expected.put(ta, reservation{stay: int32(departAt - ta), outPort: uint8(outPort), phantom: true}) {
			p.cal.Arm(ta, p.expireBit)
		}
		return
	}
	if i := p.parkedIndex(ta); i >= 0 {
		s := &p.pool[p.unpark(i)]
		if s.flit.Packet == nil || s.departAt != sim.Never {
			panic("core: schedule list pointed at a slot that is not parked")
		}
		s.departAt = departAt
		s.outPort = outPort
		p.cal.Arm(departAt, p.departBit)
		p.ledger.onScheduleParked(now, ta, departAt)
		return
	}
	if ta < now {
		if p.faultTolerant {
			// The flit was destroyed en route and never arrived;
			// the reservation dissolves. The upstream credit still
			// flows (the buffer was reserved but never bound, so
			// releasing it at the scheduled departure stays exact)
			// and the departure slot simply idles.
			return
		}
		panic(fmt.Sprintf("core: reservation for past arrival %d at cycle %d with no parked flit", ta, now))
	}
	if !p.expected.put(ta, reservation{stay: int32(departAt - ta), outPort: uint8(outPort)}) {
		panic(fmt.Sprintf("core: duplicate reservation for arrival cycle %d", ta))
	}
	p.cal.Arm(ta, p.expireBit)
	p.ledger.onReserve(ta, departAt)
}

// arrival is what became of a data flit that reached an input.
type arrival uint8

const (
	refused  arrival = iota // no buffer free: the caller drops the flit
	bypassed                // reserved to depart this cycle: the caller sends it on
	buffered                // bound to a pool buffer with its departure known
	parked                  // bound to one ahead of its control flit
)

// arrive handles a data flit that reached this input at cycle now. A flit
// reserved to depart this same cycle bypasses the buffer pool entirely, and
// arrive returns the output to send it through (the paper's bypass path — zero
// buffer residency). Otherwise the flit is bound to the lowest free pool
// buffer. Reservation accounting guarantees a buffer is free in a
// corruption-free run; running out then indicates a scheduling bug and
// panics. Under fault injection the pool can be transiently overcommitted — a
// phantom-orphaned flit occupies its slot until reclamation while the credit
// its control flit sent upstream already promised the slot free — so the
// arriving flit is refused and the caller drops it into the loss path. A
// phantom reservation for this cycle is ignored: the flit parks beside it as
// if unannounced.
func (p *inputPort) arrive(now sim.Cycle, f *noc.DataFlit) (arrival, topology.Port) {
	p.expected.slide(now)
	r, reserved := p.expected.get(now)
	reserved = reserved && !r.phantom
	if reserved && r.stay == 0 {
		p.expected.take(now)
		return bypassed, topology.Port(r.outPort)
	}
	slot := p.occ.firstFree(len(p.pool))
	if slot == -1 {
		if p.faultTolerant {
			return refused, 0
		}
		panic(fmt.Sprintf("core: data flit %s arrived at cycle %d with no free buffer — reservation accounting violated", *f, now))
	}
	s := &p.pool[slot]
	p.occ.set(slot)
	s.flit = *f
	p.occupied++
	if reserved {
		p.expected.take(now)
		s.departAt = now + sim.Cycle(r.stay)
		s.outPort = topology.Port(r.outPort)
		p.cal.Arm(s.departAt, p.departBit)
		return buffered, 0
	}
	// Arrived before its control flit finished scheduling: park it on the
	// schedule list.
	s.departAt = sim.Never
	s.outPort = 0
	if p.parkedIndex(now) >= 0 {
		panic("core: two flits parked with the same arrival cycle on one input")
	}
	p.parked = append(p.parked, parkedFlit{arrival: now, slot: slot})
	p.parkedTotal++
	p.ledger.onParkedArrival(now)
	return parked, 0
}

// departing returns the lowest pool slot at or above from whose flit is
// scheduled to leave at cycle now, or -1; the caller releases it. The
// one-reservation-per-output-cycle rule upstream guarantees distinct flits
// never contend for a channel here.
func (p *inputPort) departing(now sim.Cycle, from int) int {
	for i := p.occ.next(from); i >= 0; i = p.occ.next(i + 1) {
		if p.pool[i].departAt == now {
			return i
		}
	}
	return -1
}

// release frees a pool slot and returns the flit it held and the output the
// flit was scheduled through.
func (p *inputPort) release(slot int) (noc.DataFlit, topology.Port) {
	s := &p.pool[slot]
	f, out := s.flit, s.outPort
	*s = poolSlot{}
	p.occ.clear(slot)
	p.occupied--
	return f, out
}

// expire runs on the expiry bit for cycle now, after the cycle's arrivals. A
// reservation still unclaimed means its data flit failed to arrive (destroyed
// by a fault upstream): it is discarded, the channel slot the departure
// reserved simply goes idle and no buffer was ever bound, so accounting stays
// consistent. A condemned cycle whose flit never showed up expires the same
// way.
func (p *inputPort) expire(now sim.Cycle) {
	p.expected.slide(now)
	p.expected.take(now)
	if len(p.condemned) > 0 {
		delete(p.condemned, now)
	}
}

// condemn marks a future arrival cycle as orphaned: the control flit that
// was to schedule the arriving data flit has been destroyed by a hard fault,
// so the flit must be dropped on arrival rather than parked forever.
func (p *inputPort) condemn(ta sim.Cycle) {
	if p.condemned == nil {
		p.condemned = make(map[sim.Cycle]bool)
	}
	p.condemned[ta] = true
	p.cal.Arm(ta, p.expireBit)
}

// condemnedArrival reports (and consumes) whether the flit arriving at now
// belongs to a destroyed control stream.
func (p *inputPort) condemnedArrival(now sim.Cycle) bool {
	if len(p.condemned) == 0 || !p.condemned[now] {
		return false
	}
	delete(p.condemned, now)
	return true
}

// dropParked removes and returns the flit parked under arrival cycle ta, if
// any: its control flit has been destroyed by a hard fault, so it can never
// be scheduled out of the pool.
func (p *inputPort) dropParked(ta sim.Cycle) (noc.DataFlit, bool) {
	i := p.parkedIndex(ta)
	if i < 0 {
		return noc.DataFlit{}, false
	}
	f, _ := p.release(p.unpark(i))
	return f, true
}

// reclaim collects parked flits no control flit will ever schedule: a flit
// parked longer than timeout cycles is dropped into the loss path. In a
// corruption-free run nothing waits that long — a healthy flit's schedule-
// list residency is bounded by the control network's worst queueing delay —
// so only phantom-orphaned flits are ever collected. The schedule list is in
// arrival order, so the stale flits are its front, and a run replays
// bit-identically.
func (p *inputPort) reclaim(now, timeout sim.Cycle, drop func(noc.DataFlit)) {
	for len(p.parked) > 0 && now-p.parked[0].arrival >= timeout {
		f, _ := p.dropParked(p.parked[0].arrival)
		p.reclaimed++
		drop(f)
	}
}

// purgeOutput erases every reservation and buffered flit bound for output
// port out. It runs when the link behind out is repaired and the output's
// reservation table is rebuilt from scratch: departures committed on the old
// table would collide with the fresh table's bookkeeping, so their flits are
// destroyed (reported through drop) and their not-yet-arrived brethren are
// condemned. Parked flits stay — their control flit will schedule them on
// the fresh table.
func (p *inputPort) purgeOutput(out topology.Port, drop func(noc.DataFlit)) {
	p.expected.each(func(ta sim.Cycle, r reservation) {
		if topology.Port(r.outPort) == out {
			p.expected.take(ta)
			p.condemn(ta)
		}
	})
	for i := p.occ.next(0); i >= 0; i = p.occ.next(i + 1) {
		if s := &p.pool[i]; s.departAt != sim.Never && s.outPort == out {
			f, _ := p.release(i)
			drop(f)
		}
	}
}

// flush empties the input port mid-run, destroying every buffered flit
// (reported through drop when non-nil) and every reservation. It runs when
// the link feeding this input is repaired: the upstream router restarts with
// a fresh reservation table that believes every buffer here is free, so the
// port must actually be empty or its pool would be overcommitted.
func (p *inputPort) flush(drop func(noc.DataFlit)) {
	if p.occupied > 0 {
		if drop != nil {
			for i := p.occ.next(0); i >= 0; i = p.occ.next(i + 1) {
				drop(p.pool[i].flit)
			}
		}
		clear(p.pool)
		clear(p.occ)
		p.occupied = 0
	}
	p.expected.clear()
	p.parked = p.parked[:0]
	p.condemned = nil
}

// reset returns the input port to its just-built state: flushed, its
// reservation window back at cycle 0, its lifetime counters and the shadow
// ledger at zero.
func (p *inputPort) reset() {
	p.flush(nil)
	p.expected.reset()
	p.parkedTotal, p.phantoms, p.reclaimed = 0, 0, 0
	p.ledger.reset()
}

// pending reports buffered flits plus outstanding expectations, used by the
// drain check at the end of a run.
func (p *inputPort) pending() int {
	return p.occupied + p.expected.len()
}
