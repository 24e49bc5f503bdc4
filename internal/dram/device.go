package dram

import (
	"dap/internal/mem"
	"dap/internal/sim"
)

// FaultAction is a fault-injection verdict for one request: drop its
// response (the access still occupies bandwidth, but the data never
// arrives) and/or delay its completion by ExtraDelay cycles.
type FaultAction struct {
	DropResponse bool
	ExtraDelay   mem.Cycle
}

// FaultHook inspects every enqueued request and returns the fault (if any)
// to inject. The zero FaultAction leaves the request untouched.
type FaultHook func(*mem.Request) FaultAction

// Device is a multi-channel DRAM bandwidth source. Lines are interleaved
// across channels at 64 B granularity; banks are selected from higher
// address bits XOR-folded with the row index to spread conflicts.
type Device struct {
	Cfg      Config
	eng      *sim.Engine
	channels []*channel

	// pool recycles request records across the device's channel queues.
	// The device and its channels run on one engine goroutine, so the
	// LIFO free list is deterministic and needs no locking. Steady state
	// holds the peak queue depth's worth of records and allocates nothing.
	pool mem.RequestPool

	rowLines uint64 // lines per row

	// Kinds counts accesses by kind for bandwidth attribution.
	Kinds [8]uint64

	// Fault, when non-nil, is consulted on every enqueue (fault injection).
	Fault FaultHook
}

// NewDeviceE builds a device from a configuration, rejecting one whose
// derived timings would divide by zero or route addresses nonsensically.
func NewDeviceE(cfg Config, eng *sim.Engine) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{Cfg: cfg, eng: eng, rowLines: uint64(cfg.RowBytes / mem.LineBytes)}
	for i := 0; i < cfg.Channels; i++ {
		d.channels = append(d.channels, newChannel(&d.Cfg, eng, &d.pool))
	}
	return d, nil
}

// NewDevice builds a device from a configuration; it panics on an invalid
// one (use NewDeviceE, or validate the enclosing system configuration, to
// get structured errors instead).
func NewDevice(cfg Config, eng *sim.Engine) *Device {
	d, err := NewDeviceE(cfg, eng)
	if err != nil {
		panic("dram: " + err.Error())
	}
	return d
}

// route decodes an address into channel, bank and row.
func (d *Device) route(a mem.Addr) (ch, bk int, row int64) {
	line := uint64(a.Line())
	nch := uint64(len(d.channels))
	ch = int(line % nch)
	inCh := line / nch
	r := inCh / d.rowLines
	nbk := uint64(d.Cfg.Banks)
	bk = int((r ^ (r >> 4)) % nbk)
	return ch, bk, int64(r)
}

// Enqueue submits a request to the device. The request's Done callback (if
// any) fires when data is transferred. The request is consumed by value —
// the device copies it into a pooled record and never retains r — so
// callers may pass a stack-allocated request and reuse or discard it
// immediately. (Prefer Access/AccessBurst: they fill the pooled record
// directly without the intermediate copy.)
func (d *Device) Enqueue(r *mem.Request) {
	p := d.pool.Get()
	*p = *r
	d.submit(p)
}

// submit is the pooled-request path shared by Access, AccessTraced,
// AccessBurst and Enqueue. Ownership of r (a record from d.pool) passes to
// the target channel. The fault hook lives on a separate non-inlined path
// so the fault-free common case stays branch-light.
func (d *Device) submit(r *mem.Request) {
	if d.Fault != nil {
		d.submitFaulty(r)
		return
	}
	d.Kinds[r.Kind]++
	ch, bk, row := d.route(r.Addr)
	d.channels[ch].enqueue(r, bk, row)
}

// submitFaulty consults the fault hook and rewrites the request according
// to its verdict: a dropped response loses its Done callback (the transfer
// still happens, so the bandwidth is spent, but the waiter never wakes); a
// delay defers Done.
//
//go:noinline
func (d *Device) submitFaulty(r *mem.Request) {
	if act := d.Fault(r); act.DropResponse || act.ExtraDelay > 0 {
		switch {
		case act.DropResponse:
			r.Done = nil
		case r.Done != nil:
			orig, extra := r.Done, act.ExtraDelay
			r.Done = func(mem.Cycle) { d.eng.AfterArg(extra, mem.Call, orig, 0) }
		}
	}
	d.Kinds[r.Kind]++
	ch, bk, row := d.route(r.Addr)
	d.channels[ch].enqueue(r, bk, row)
}

// Access is a convenience wrapper building a Request.
func (d *Device) Access(a mem.Addr, k mem.Kind, core int, done func(mem.Cycle)) {
	r := d.pool.Get()
	r.Addr, r.Kind, r.Core, r.Issued, r.Done = a, k, core, d.eng.Now(), done
	d.submit(r)
}

// AccessBurst is Access with an explicit burst-length override in device
// cycles (0 means the config default). It exists for the mscache
// controllers' tag-and-data and writeback transactions, which transfer
// more than one line per CAS; routing them here keeps the request record
// pooled instead of heap-allocating one per enqueue.
func (d *Device) AccessBurst(a mem.Addr, k mem.Kind, core int, burst uint8, done func(mem.Cycle)) {
	r := d.pool.Get()
	r.Addr, r.Kind, r.Core, r.Issued, r.Burst, r.Done = a, k, core, d.eng.Now(), burst, done
	d.submit(r)
}

// AccessTraced is Access with an observability issue hook attached: onIssue
// (if non-nil) receives the request's in-queue wait when its data burst is
// scheduled. Timing is identical to Access.
func (d *Device) AccessTraced(a mem.Addr, k mem.Kind, core int, onIssue func(mem.Cycle), done func(mem.Cycle)) {
	r := d.pool.Get()
	r.Addr, r.Kind, r.Core, r.Issued, r.OnIssue, r.Done = a, k, core, d.eng.Now(), onIssue, done
	d.submit(r)
}

// NumChannels returns the number of channels.
func (d *Device) NumChannels() int { return len(d.channels) }

// ChannelQueueLen returns the pending requests queued on one channel.
func (d *Device) ChannelQueueLen(i int) int { return d.channels[i].queueLen() }

// ChannelBusyCycles returns one channel's cumulative data-bus occupancy.
func (d *Device) ChannelBusyCycles(i int) mem.Cycle { return d.channels[i].stats.BusyCycles }

// TotalCAS returns the cumulative column accesses across channels.
func (d *Device) TotalCAS() uint64 {
	var n uint64
	for _, ch := range d.channels {
		n += ch.stats.Reads + ch.stats.Writes
	}
	return n
}

// QueueLen returns the total queued requests across channels.
func (d *Device) QueueLen() int {
	n := 0
	for _, ch := range d.channels {
		n += ch.queueLen()
	}
	return n
}

// Stats sums channel statistics.
func (d *Device) Stats() ChannelStats {
	var s ChannelStats
	for _, ch := range d.channels {
		s.Reads += ch.stats.Reads
		s.Writes += ch.stats.Writes
		s.RowHits += ch.stats.RowHits
		s.RowMisses += ch.stats.RowMisses
		s.BusyCycles += ch.stats.BusyCycles
		s.ReadLatSum += ch.stats.ReadLatSum
		s.ReadLat.Merge(&ch.stats.ReadLat)
		s.Refreshes += ch.stats.Refreshes
		if ch.stats.QueuePeak > s.QueuePeak {
			s.QueuePeak = ch.stats.QueuePeak
		}
	}
	return s
}

// ResetStats clears all channel statistics (used after warmup).
func (d *Device) ResetStats() {
	for _, ch := range d.channels {
		ch.stats = ChannelStats{}
	}
	d.Kinds = [8]uint64{}
}

// DeliveredGBps reports the average data bandwidth over a cycle span.
func (d *Device) DeliveredGBps(cycles mem.Cycle) float64 {
	s := d.Stats()
	return mem.GBPerSec(s.CAS()*mem.LineBytes, cycles)
}

// AvgReadLatency returns the mean enqueue-to-data read latency in cycles.
func (d *Device) AvgReadLatency() float64 {
	s := d.Stats()
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadLatSum) / float64(s.Reads)
}
