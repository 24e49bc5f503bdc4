// Package mem defines the shared vocabulary of the memory-system simulator:
// addresses, cycles, access kinds, request records and bandwidth units.
//
// All times are expressed in CPU cycles. The simulated CPU frequency is
// fixed at 4 GHz (the paper's core clock), so one cycle is 0.25 ns and a
// bandwidth of 1 GB/s corresponds to 0.25 bytes per cycle.
package mem

import "fmt"

// Addr is a byte-granularity physical address.
type Addr uint64

// Cycle is a point in simulated time, measured in CPU cycles at 4 GHz.
type Cycle uint64

// Handler is a typed event callback, the simulation engine's only event
// form: ctx is usually the receiving component (a pointer, so boxing it in
// the interface never allocates), v is a packed value argument, and now is
// the cycle the event runs at. Scheduling a top-level Handler costs no
// closure allocation. It lives here rather than in the engine so observers
// (internal/obs, internal/faultinject) can schedule events without
// importing it.
type Handler func(ctx any, v uint64, now Cycle)

// Call is the Handler for a callback a component already holds: ctx is a
// func(Cycle), invoked with the event's cycle. A func value boxes into the
// interface without allocating, so delivering a request's Done callback
// this way is allocation-free.
func Call(ctx any, _ uint64, now Cycle) { ctx.(func(Cycle))(now) }

// Standard geometry constants used throughout the simulator.
const (
	// LineBytes is the transfer unit between all levels (64 B blocks).
	LineBytes = 64
	// LineShift is log2(LineBytes).
	LineShift = 6
	// CPUFreqGHz is the simulated core clock.
	CPUFreqGHz = 4.0
)

// Line returns the cache-line index of an address.
func (a Addr) Line() Addr { return a >> LineShift }

// LineAligned returns the address rounded down to its cache line.
func (a Addr) LineAligned() Addr { return a &^ (LineBytes - 1) }

// Kind classifies a memory access as seen below the L3 cache.
type Kind uint8

// Access kinds. ReadKind and WritebackKind are demand traffic from the SRAM
// hierarchy; the remaining kinds are maintenance traffic generated by the
// memory-side cache itself and exist so that bandwidth accounting can
// attribute every CAS operation (Section III of the paper: the access
// inflation factor C).
const (
	ReadKind      Kind = iota // demand read (L3 read miss)
	WritebackKind             // dirty L3 eviction
	FillKind                  // read-miss fill write into the memory-side cache
	MetaReadKind              // metadata fetch from in-cache tag store
	MetaWriteKind             // metadata update to in-cache tag store
	VictimRdKind              // read of a dirty victim block out of the cache
	PrefetchKind              // hardware prefetch fill
)

var kindNames = [...]string{"read", "writeback", "fill", "meta-read", "meta-write", "victim-read", "prefetch"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsWrite reports whether the access occupies a write datapath.
func (k Kind) IsWrite() bool {
	switch k {
	case WritebackKind, FillKind, MetaWriteKind, PrefetchKind:
		return true
	}
	return false
}

// Request is one 64-byte access flowing through the memory system.
type Request struct {
	Addr   Addr
	Kind   Kind
	Core   int   // originating core, -1 for maintenance traffic
	Issued Cycle // time the request entered the memory system
	// Burst overrides the device's data-bus occupancy in device clocks when
	// non-zero (the Alloy cache's 72 B TADs occupy three HBM clocks instead
	// of two).
	Burst uint8
	// Done, if non-nil, is invoked exactly once when the access completes
	// (data returned for reads; accepted for writes).
	Done func(done Cycle)
	// OnIssue, if non-nil, is invoked when the device schedules the
	// request's data burst, with the time the request spent queued. It is
	// an observability hook and must never influence timing.
	OnIssue func(wait Cycle)
}

// BytesPerCycle converts a bandwidth in GB/s to bytes per CPU cycle.
func BytesPerCycle(gbps float64) float64 { return gbps / CPUFreqGHz }

// AccessesPerCycle converts a bandwidth in GB/s to 64-byte accesses per CPU
// cycle — the unit used by the DAP bandwidth equation.
func AccessesPerCycle(gbps float64) float64 { return BytesPerCycle(gbps) / LineBytes }

// GBPerSec converts bytes moved over a cycle span into GB/s.
func GBPerSec(bytes uint64, cycles Cycle) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes) / float64(cycles) * CPUFreqGHz
}

// KiB, MiB and GiB are capacity helpers.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)
