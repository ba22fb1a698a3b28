package main

import (
	"sort"
	"time"
)

// The calibration kernel is FROZEN. Every relative metric (op_rel_p50,
// cpu_rel_per_op) is a ratio against its running time, so editing
// anything in this file invalidates every committed baseline.
//
// It must allocate: in the probes behind ISSUE 13 an allocation-free
// kernel tracked host drift only to 8–14%, the allocating one to 3%
// (the interpretation paths it stands in for are allocation-heavy, and
// a shared host slows the allocator and GC differently from pure ALU
// work).
const (
	calibInts     = 60000
	calibLookups  = 5000
	calibReps     = 3 // kernel repetitions per calibration sample
	calibChecksum = 0x3d74c90435e0fd57
)

// calibKernel xorshift-fills a fresh slice, inserts every fourth value
// into a fresh map, sorts, does map lookups, and folds a checksum.
func calibKernel() uint64 {
	xs := make([]int, calibInts)
	m := make(map[int]*[4]int)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := int(x >> 1)
		xs[i] = v
		if i%4 == 0 {
			m[v] = &[4]int{v, i, i >> 1, i >> 2}
		}
	}
	sort.Ints(xs)
	sum := uint64(xs[0]) ^ uint64(xs[calibInts/2])
	for i := 0; i < calibLookups; i++ {
		k := xs[(i*7919)%calibInts]
		if p := m[k]; p != nil {
			sum += uint64(p[1]) + uint64(p[3])
		} else {
			sum ^= uint64(k)
		}
	}
	return sum
}

// calibrator collects calibration samples: the wall time, in
// milliseconds, of calibReps back-to-back kernel runs on the client
// goroutine. Samples are always taken outside the metered sections.
type calibrator struct {
	ms []float64
}

func (c *calibrator) sample() {
	start := time.Now()
	for i := 0; i < calibReps; i++ {
		if calibKernel() != calibChecksum {
			panic("benchmark: calibration kernel changed; every baseline is void")
		}
	}
	c.ms = append(c.ms, msSince(start))
}
