package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host probe. This benchmark was sized on a two-vCPU virtual machine
// whose speed moves by 20–40 % for minutes at a time: sometimes wall
// time alone inflates, sometimes CPU time with it. A fixed sequence run
// twice on one commit then differs by more than any regression bound. So
// every episode is bracketed by a fixed reference kernel — harness code
// only, nothing of the program under test — and the episode's time-based
// end-to-end metrics are scaled by probeNominalS over the kernel's time
// beside them: wall-clock metrics by its wall time, cpu_ms_per_op by its
// CPU time. A metric so scaled reads what it would on a host that runs the
// kernel in exactly probeNominalS. Per-layer metrics are never scaled;
// host.probe_ms and host.probe_cpu_ms report the kernel's raw times.

// probeNominalS is the kernel time the metrics are scaled to: about what
// the sizing host needs for one repetition (wall; CPU per processor) in a
// quiet minute.
const probeNominalS = 0.1

// probeReps is how often the kernel runs before and again after an
// episode; the episode's probe is the median of both sets.
const probeReps = 4

// probeTable is the table one processor's kernel walks. It is built for
// every sample and dropped after it, so that it is never part of the live
// heap an episode reports.
func probeTable() []uint32 {
	t := make([]uint32, 1<<20) // 4 MiB: as large as this host's L2
	x := uint32(2463534242)
	for j := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[j] = x
	}
	return t
}

// probeKernel does the kinds of work the program's layers do — map
// inserts and look-ups, a sort, a dependent walk through a table that does
// not fit the near caches — a fixed number of times.
func probeKernel(table []uint32) uint64 {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var acc uint64
	for round := 0; round < 12; round++ {
		m := make(map[uint64]uint32, 1<<12)
		for i := 0; i < 1<<14; i++ {
			k := next() & (1<<13 - 1)
			m[k] += uint32(i)
			acc += uint64(m[k^1])
		}
		xs := make([]int, 1<<13)
		for i := range xs {
			xs[i] = int(next() >> 40)
		}
		sort.Ints(xs)
		acc += uint64(xs[len(xs)/2])
		at := uint32(0)
		for i := 0; i < 1<<17; i++ {
			at = table[(at+uint32(i))&uint32(len(table)-1)]
			acc += uint64(at)
		}
	}
	return acc
}

// probeSink keeps the kernel's result alive.
var probeSink uint64

// sampleProbe runs the kernel on every processor at once, reps times, and
// returns each repetition's wall time and its CPU time per processor.
func sampleProbe(reps int) (wall, cpu []float64) {
	procs := runtime.GOMAXPROCS(0)
	tables := make([][]uint32, procs)
	for i := range tables {
		tables[i] = probeTable()
	}
	sums := make([]uint64, procs)
	for r := 0; r < reps; r++ {
		start, cpu0 := time.Now(), cpuSeconds()
		var wg sync.WaitGroup
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sums[i] = probeKernel(tables[i])
			}(i)
		}
		wg.Wait()
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, (cpuSeconds()-cpu0)/float64(procs))
		probeSink += sums[0]
	}
	return wall, cpu
}
