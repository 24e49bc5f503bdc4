package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// probeRefS is the host probe's median duration on the 2-CPU host the
// bounds were set on. End-to-end timings are reported in reference-host
// seconds: each timed interval's host seconds × probeRefS ÷ the mean of the
// probes taken just before and just after it.
const probeRefS = 0.0585

var probeSink uint64

// scaled converts a host interval to reference-host seconds, given the mean
// probe around it.
func scaled(d, probe time.Duration) float64 {
	return seconds(d) * ratio(probeRefS, seconds(probe))
}

// probeTable is the probe's memory half: 32 MiB of random read-modify-
// writes, a third of the host's last-level cache, so the neighbours' cache
// and memory pressure that slows the simulator's tag arrays slows the probe
// too. It is mapped outside the Go heap, so it leaves the collector's pacing
// of the simulator's heap alone, and filled up front so no probe pays page
// faults.
var probeTable = func() []uint64 {
	const n = 1 << 22
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("dapbench: map probe table: %v", err))
	}
	t := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	for i := range t {
		t[i] = uint64(i)
	}
	return t
}()

// hostProbe times a fixed loop, half integer arithmetic and half random
// memory updates, that shares no code with the simulator. On a shared host
// the speed of a core drifts by up to ±20% over minutes with its
// neighbours' load, and memory-bound phases drift further; the probe, run
// between figure points, measures that drift so the end-to-end metrics can
// cancel it while a change in the simulator still shows in full.
func hostProbe() time.Duration {
	t := time.Now()
	x := uint64(1)
	for i := 0; i < 12_500_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	mask := uint64(len(probeTable) - 1)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		probeTable[x&mask] += x
	}
	probeSink += x
	return time.Since(t)
}
