package dram

import (
	"dap/internal/mem"
	"dap/internal/sim"
	"dap/internal/stats"
)

// bank tracks row-buffer state and when its next data burst may start.
type bank struct {
	openRow  int64 // -1 when closed
	nextData mem.Cycle
	actAt    mem.Cycle // last activation time (for tRAS)
}

// queued is a request waiting in a channel queue. The request lives in the
// owning device's free-list pool: the channel is its sole holder from
// enqueue until issue, where the callbacks are extracted and the record is
// returned to the pool. gen is the pool generation stamped at enqueue
// (always 0 unless built with -tags dappooldebug), re-checked at issue to
// catch a record freed or reused while queued.
type queued struct {
	req      *mem.Request
	gen      uint64
	bank     int
	row      int64
	enqueued mem.Cycle
}

// ChannelStats aggregates per-channel activity.
type ChannelStats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64
	BusyCycles mem.Cycle // data-bus occupancy
	ReadLatSum mem.Cycle // enqueue-to-data latency, reads only
	QueuePeak  int
	Refreshes  uint64
	// ReadLat is the read latency distribution (cycles, log2 buckets).
	ReadLat stats.Histogram
}

// CAS returns the total column accesses performed.
func (s ChannelStats) CAS() uint64 { return s.Reads + s.Writes }

// horizon is how far ahead of real time data-bus slots may be reserved, in
// CPU cycles. It lets row activations and precharges on different banks
// proceed under an ongoing transfer, which is what gives DRAM its bank-level
// parallelism.
const horizon mem.Cycle = 240

// channel is a single DRAM channel with a private data bus and banks.
type channel struct {
	cfg    *Config
	eng    *sim.Engine
	pool   *mem.RequestPool // owned by the device, shared by its channels
	banks  []bank
	readQ  []queued
	writeQ []queued

	busFree   mem.Cycle
	draining  bool // write-drain mode
	lastWrite bool // last burst was a write (turnaround tracking)
	scheduled bool
	stats     ChannelStats

	// latencies precomputed in CPU cycles
	tCAS, tRCD, tRP, tRAS, burst, io, turn mem.Cycle
	tREFI, tRFC                            mem.Cycle // refresh interval and duration (0: no refresh)
}

func newChannel(cfg *Config, eng *sim.Engine, pool *mem.RequestPool) *channel {
	ch := &channel{
		cfg: cfg, eng: eng, pool: pool, banks: make([]bank, cfg.Banks),
		// Queues sized for the usual backlog up front: growing them from
		// nil one doubling at a time was the largest allocation site of a
		// freshly built device.
		readQ:  make([]queued, 0, 64),
		writeQ: make([]queued, 0, 64),
	}
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	if cfg.RefreshInterval > 0 && cfg.RefreshCycles > 0 {
		ch.tREFI = cfg.cpuCycles(cfg.RefreshInterval)
		ch.tRFC = cfg.cpuCycles(cfg.RefreshCycles)
		eng.AtArg(ch.tREFI, refresh, ch, 0)
	}
	ch.tCAS = cfg.cpuCycles(cfg.TCAS)
	ch.tRCD = cfg.cpuCycles(cfg.TRCD)
	ch.tRP = cfg.cpuCycles(cfg.TRP)
	ch.tRAS = cfg.cpuCycles(cfg.TRAS)
	ch.burst = cfg.cpuCycles(cfg.BurstCycles)
	ch.io = cfg.cpuCycles(cfg.IOCycles)
	ch.turn = cfg.cpuCycles(cfg.TurnaroundCycles)
	return ch
}

// enqueue adds a pooled request; bank/row decoding already done by the
// device. Ownership of r transfers to the channel, which returns it to the
// pool at issue time.
func (ch *channel) enqueue(r *mem.Request, bk int, row int64) {
	q := queued{req: r, gen: ch.pool.Generation(r), bank: bk, row: row, enqueued: ch.eng.Now()}
	if r.Kind.IsWrite() && !ch.cfg.ReadOnly {
		ch.writeQ = append(ch.writeQ, q)
	} else {
		ch.readQ = append(ch.readQ, q)
	}
	if n := len(ch.readQ) + len(ch.writeQ); n > ch.stats.QueuePeak {
		ch.stats.QueuePeak = n
	}
	ch.kick(ch.eng.Now())
}

// queueLen reports pending requests (used by SBD's latency estimate).
func (ch *channel) queueLen() int { return len(ch.readQ) + len(ch.writeQ) }

func (ch *channel) kick(at mem.Cycle) {
	if ch.scheduled {
		return
	}
	ch.scheduled = true
	// AtArg with a top-level handler: forming the method value ch.schedule
	// here allocated a closure per kick, which profiling showed was the
	// single largest allocation site in the whole simulator (~36%).
	ch.eng.AtArg(at, chanSchedule, ch, 0)
}

// chanSchedule is the typed scheduler-kick handler (see kick).
func chanSchedule(ctx any, _ uint64, _ mem.Cycle) { ctx.(*channel).schedule() }

// estStart estimates the earliest data-bus start for a queued request if it
// were issued now.
func (ch *channel) estStart(e *queued, now mem.Cycle) mem.Cycle {
	b := &ch.banks[e.bank]
	var ready mem.Cycle
	switch {
	case b.openRow == e.row:
		ready = now + ch.tCAS
	case b.openRow == -1:
		ready = now + ch.tRCD + ch.tCAS
	default:
		pre := maxCycle(now, b.actAt+ch.tRAS)
		ready = pre + ch.tRP + ch.tRCD + ch.tCAS
	}
	return maxCycle(maxCycle(ready, b.nextData), ch.busFree)
}

// pick selects the issuable request with the earliest achievable data start
// among the oldest window entries (FR-FCFS: row hits to ready banks win).
func (ch *channel) pick(q []queued, now mem.Cycle) int {
	const window = 16
	n := len(q)
	if n > window {
		n = window
	}
	best, bestStart := 0, ch.estStart(&q[0], now)
	for i := 1; i < n; i++ {
		if s := ch.estStart(&q[i], now); s < bestStart {
			best, bestStart = i, s
		}
	}
	return best
}

// selectQueue applies write-batching hysteresis and returns the queue to
// serve next (nil when idle).
func (ch *channel) selectQueue() *[]queued {
	if ch.cfg.WriteOnly {
		if len(ch.writeQ) > 0 {
			return &ch.writeQ
		}
		return nil
	}
	if ch.cfg.ReadOnly {
		if len(ch.readQ) > 0 {
			return &ch.readQ
		}
		return nil
	}
	if ch.draining {
		if len(ch.writeQ) == 0 || (len(ch.writeQ) <= ch.cfg.WriteLow && len(ch.readQ) > 0) {
			ch.draining = false
		}
	} else {
		if (ch.cfg.WriteHigh > 0 && len(ch.writeQ) >= ch.cfg.WriteHigh) ||
			(len(ch.readQ) == 0 && len(ch.writeQ) > 0) {
			ch.draining = true
		}
	}
	if ch.draining && len(ch.writeQ) > 0 {
		return &ch.writeQ
	}
	if len(ch.readQ) > 0 {
		return &ch.readQ
	}
	return nil
}

// schedule issues requests while data-bus slots within the lookahead horizon
// remain, then re-arms itself.
func (ch *channel) schedule() {
	ch.scheduled = false
	now := ch.eng.Now()
	for {
		q := ch.selectQueue()
		if q == nil {
			return // idle; next enqueue kicks
		}
		if ch.busFree >= now+horizon {
			ch.kick(maxCycle(now+1, ch.busFree-horizon))
			return
		}
		i := ch.pick(*q, now)
		e := (*q)[i]
		*q = append((*q)[:i], (*q)[i+1:]...)
		ch.issue(&e, now)
	}
}

// issue performs the timing bookkeeping for one request, then releases the
// request record back to the device pool: everything the completion needs
// (the Done func value) is copied into the scheduled event, so nothing
// references the record after issue returns.
func (ch *channel) issue(e *queued, now mem.Cycle) {
	ch.pool.CheckLive(e.req, e.gen)
	isWrite := e.req.Kind.IsWrite() && !ch.cfg.ReadOnly
	b := &ch.banks[e.bank]
	burst := ch.burst
	if e.req.Burst > 0 {
		burst = ch.cfg.cpuCycles(int(e.req.Burst))
	}

	var dataStart mem.Cycle
	switch {
	case b.openRow == e.row:
		dataStart = maxCycle(now+ch.tCAS, b.nextData)
		ch.stats.RowHits++
	case b.openRow == -1:
		dataStart = maxCycle(now+ch.tRCD+ch.tCAS, b.nextData)
		b.actAt = dataStart - ch.tCAS - ch.tRCD
		ch.stats.RowMisses++
	default:
		pre := maxCycle(now, b.actAt+ch.tRAS)
		dataStart = maxCycle(pre+ch.tRP+ch.tRCD+ch.tCAS, b.nextData)
		b.actAt = dataStart - ch.tCAS - ch.tRCD
		ch.stats.RowMisses++
	}
	b.openRow = e.row

	busReady := ch.busFree
	if isWrite != ch.lastWrite {
		busReady += ch.turn
	}
	dataStart = maxCycle(dataStart, busReady)
	ch.lastWrite = isWrite
	b.nextData = dataStart + burst
	ch.busFree = dataStart + burst
	ch.stats.BusyCycles += burst

	if e.req.OnIssue != nil {
		e.req.OnIssue(dataStart - e.enqueued)
	}

	done := dataStart + burst + ch.io
	if isWrite {
		ch.stats.Writes++
	} else {
		ch.stats.Reads++
		ch.stats.ReadLatSum += done - e.enqueued
		ch.stats.ReadLat.Add(uint64(done - e.enqueued))
	}
	if e.req.Done != nil {
		// The held callback rides in ctx: no wrapper closure is allocated
		// per completed access.
		ch.eng.AtArg(done, mem.Call, e.req.Done, 0)
	}
	ch.pool.Put(e.req)
	e.req = nil
}

// refresh is the channel's periodic refresh event: all banks close and the
// channel stalls for tRFC, then the next refresh is due tREFI later.
func refresh(ctx any, _ uint64, now mem.Cycle) {
	ch := ctx.(*channel)
	start := maxCycle(now, ch.busFree)
	end := start + ch.tRFC
	ch.busFree = end
	for i := range ch.banks {
		ch.banks[i].openRow = -1
		if ch.banks[i].nextData < end {
			ch.banks[i].nextData = end
		}
	}
	ch.stats.Refreshes++
	ch.eng.AtArg(now+ch.tREFI, refresh, ch, 0)
}

func maxCycle(a, b mem.Cycle) mem.Cycle {
	if a > b {
		return a
	}
	return b
}
