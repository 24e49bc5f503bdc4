package sim

import (
	"container/heap"
	"fmt"
	"testing"
	"unsafe"

	"dap/internal/mem"
)

// --- reference implementation -------------------------------------------
//
// refEngine is the container/heap scheduler the timing wheel replaced:
// (when, seq) ordering, past-clamping, now = popped event's when. It exists
// only as a test oracle — a plain heap has no buckets, no occupancy bitmap
// and no overflow spill, so agreement across randomized programs pins the
// wheel's clamp, wrap-around and overflow behavior to the simple model.

type refEvent struct {
	when mem.Cycle
	seq  uint64
	fn   mem.Handler
	ctx  any
	v    uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() (x any) { old := *h; n := len(old) - 1; x = old[n]; *h = old[:n]; return }

type refEngine struct {
	now    mem.Cycle
	seq    uint64
	events refHeap
}

func (e *refEngine) Now() mem.Cycle { return e.now }

func (e *refEngine) AtArg(when mem.Cycle, fn mem.Handler, ctx any, v uint64) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	heap.Push(&e.events, refEvent{when: when, seq: e.seq, fn: fn, ctx: ctx, v: v})
}

func (e *refEngine) AfterArg(delay mem.Cycle, fn mem.Handler, ctx any, v uint64) {
	e.AtArg(e.now+delay, fn, ctx, v)
}

func (e *refEngine) Drain() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(refEvent)
		e.now = ev.when
		ev.fn(ev.ctx, ev.v, ev.when)
	}
}

// scheduler is the surface both engines expose to the random program.
type scheduler interface {
	Now() mem.Cycle
	AtArg(mem.Cycle, mem.Handler, any, uint64)
	AfterArg(mem.Cycle, mem.Handler, any, uint64)
	Drain()
}

// xorshift is a tiny deterministic RNG so both engines replay the exact
// same program (no math/rand global state involved).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// program is the randomized-schedule state shared by the closures and the
// typed AtArg handler (which, being a top-level function, reaches it
// through ctx).
type program struct {
	s      scheduler
	log    []string
	rng    xorshift
	budget int // total events; bounds the recursive rescheduling
}

// progArgEvent is the AtArg/AfterArg callback: v packs (id, depth).
func progArgEvent(ctx any, v uint64, t mem.Cycle) {
	p := ctx.(*program)
	id, depth := int(v>>8), int(v&0xff)
	p.log = append(p.log, fmt.Sprintf("arg:%d@%d(t=%d)", id, p.s.Now(), t))
	if depth < 3 && p.rng.next()%2 == 0 {
		p.schedule(id*7+4, depth+1)
	}
}

func (p *program) schedule(id, depth int) {
	if p.budget <= 0 {
		return
	}
	p.budget--
	s := p.s
	switch p.rng.next() % 5 {
	case 0: // closure (mem.Call) in the near future, possibly in the past (clamped)
		when := mem.Cycle(p.rng.next() % 2048)
		if p.rng.next()%4 == 0 && s.Now() > 16 {
			when = s.Now() - mem.Cycle(p.rng.next()%16) - 1 // strictly past
		}
		s.AtArg(when, mem.Call, func(mem.Cycle) {
			p.log = append(p.log, fmt.Sprintf("at:%d@%d", id, s.Now()))
			if depth < 3 && p.rng.next()%2 == 0 {
				p.schedule(id*7+1, depth+1)
			}
		}, 0)
	case 1: // mem.Call: the callback receives its run cycle; the range
		// straddles the wheel boundary, so some land in the overflow heap
		when := s.Now() + mem.Cycle(p.rng.next()%6000)
		s.AtArg(when, mem.Call, func(t mem.Cycle) {
			p.log = append(p.log, fmt.Sprintf("call:%d@%d(t=%d)", id, s.Now(), t))
			if depth < 3 && p.rng.next()%2 == 0 {
				p.schedule(id*7+2, depth+1)
			}
		}, 0)
	case 2: // relative, near future (wheel path, wraps as now advances)
		s.AfterArg(mem.Cycle(p.rng.next()%512), mem.Call, func(mem.Cycle) {
			p.log = append(p.log, fmt.Sprintf("after:%d@%d", id, p.s.Now()))
			if depth < 3 && p.rng.next()%3 == 0 {
				p.schedule(id*7+3, depth+1)
			}
		}, 0)
	case 3: // AtArg far in the future: always beyond the wheel horizon,
		// exercising the overflow spill and its (when, seq) merge on pop
		when := s.Now() + mem.Cycle(4100+p.rng.next()%16000)
		s.AtArg(when, progArgEvent, p, uint64(id)<<8|uint64(depth))
	default: // AfterArg with a delay straddling the wheel boundary
		s.AfterArg(mem.Cycle(p.rng.next()%5000), progArgEvent, p, uint64(id)<<8|uint64(depth))
	}
}

// runProgram executes a randomized schedule against s and returns the
// execution log: one entry per executed callback recording its identity and
// the cycle it observed. Executed callbacks reschedule follow-up events —
// closures in the past (exercising the clamp), closures receiving their
// run cycle, and
// AtArg/AfterArg events near and far beyond the wheel horizon (exercising
// wrap-around and the overflow heap) — driven by an RNG whose draws depend
// only on execution order, so two engines produce identical logs iff they
// execute events in exactly the same order at the same times.
func runProgram(seed uint64, s scheduler) []string {
	p := &program{s: s, rng: xorshift(seed | 1), budget: 4000}
	for i := 0; i < 400; i++ {
		p.schedule(i, 0)
		// interleave partial drains so some scheduling happens mid-run,
		// with time advanced — that is what makes past-clamping reachable
		if i%97 == 96 {
			s.Drain()
		}
	}
	s.Drain()
	return p.log
}

// TestEventQueueMatchesContainerHeap is the property test for the timing
// wheel: across randomized interleavings of AtArg/AfterArg (closures
// through mem.Call and top-level handlers)
// and partial drains — including events scheduled in the past (clamped),
// beyond the wheel horizon (overflow spill), across bucket wrap-around,
// and with (when, seq) ties — the Engine executes callbacks in exactly the
// order and at exactly the times the container/heap reference does.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		got := runProgram(seed, New())
		want := runProgram(seed, &refEngine{})
		if len(got) != len(want) {
			t.Fatalf("seed %d: executed %d events, reference executed %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: execution diverges at event %d: engine %q, reference %q",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestTieBreakIsInsertionOrder pins the seq tie-break directly: events
// scheduled at the same cycle run in insertion order, interleaved across
// AtArg/AfterArg with closure and top-level handlers.
func TestTieBreakIsInsertionOrder(t *testing.T) {
	e := New()
	var order []int
	at(e, 10, func(mem.Cycle) { order = append(order, 0) })
	at(e, 10, func(mem.Cycle) { order = append(order, 1) })
	after(e, 10, func(mem.Cycle) { order = append(order, 2) })
	e.AtArg(10, func(ctx any, v uint64, _ mem.Cycle) {
		p := ctx.(*[]int)
		*p = append(*p, int(v))
	}, &order, 3)
	at(e, 10, func(mem.Cycle) { order = append(order, 4) })
	e.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events ran out of insertion order: %v", order)
		}
	}
}

var sinkCount int

func countEventAt(mem.Cycle)               { sinkCount++ }
func countEventArg(any, uint64, mem.Cycle) { sinkCount++ }

// TestSchedulePathAllocs asserts the point of the timing-wheel rewrite:
// once the wheel's buckets and the overflow heap are warm, scheduling and
// dispatching an event — a top-level handler or a held func(mem.Cycle)
// through mem.Call, near-future (wheel) or far-future (overflow) — incurs
// zero heap allocations.
func TestSchedulePathAllocs(t *testing.T) {
	e := New()
	for i := 0; i < 1024; i++ { // grow bucket backing arrays once
		e.AfterArg(mem.Cycle(i%64), countEventArg, e, 0)
	}
	for i := 0; i < 512; i++ { // grow the overflow heap once
		e.AfterArg(wheelSize+mem.Cycle(i), countEventArg, e, 0)
	}
	e.Drain()
	if a := testing.AllocsPerRun(1000, func() {
		e.AtArg(e.Now()+3, mem.Call, countEventAt, 0)
		e.Step()
	}); a != 0 {
		t.Fatalf("mem.Call AtArg+Step allocates %.1f times per event, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		e.AfterArg(3, countEventArg, e, 7)
		e.Step()
	}); a != 0 {
		t.Fatalf("AfterArg+Step allocates %.1f times per event, want 0", a)
	}
	// far-future: the event spills to the overflow heap and pops from it
	if a := testing.AllocsPerRun(1000, func() {
		e.AtArg(e.Now()+wheelSize+100, countEventArg, e, 7)
		e.Step()
	}); a != 0 {
		t.Fatalf("overflow AtArg+Step allocates %.1f times per event, want 0", a)
	}
}

// TestEventSize pins the one-callback event record: 48 bytes, 56 in its
// wheel arena node. Every Step reads one, so a field added back to event
// costs memory traffic on the simulator's hottest path.
func TestEventSize(t *testing.T) {
	if s := unsafe.Sizeof(event{}); s != 48 {
		t.Errorf("event is %d bytes, want 48", s)
	}
	if s := unsafe.Sizeof(eventNode{}); s != 56 {
		t.Errorf("eventNode is %d bytes, want 56", s)
	}
}
