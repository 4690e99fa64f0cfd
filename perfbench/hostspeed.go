package main

import (
	"runtime"
	"sync"
	"time"
)

// The benchmark shares its machine with other tenants, and the speed of
// its vCPUs drifts with their load: on the 2-vCPU development VM the
// same commit ran saturate-long at 232 to 515 verdicts/s within one
// hour, with almost no steal time reported, so wall-clock figures from
// runs minutes apart differ by more than a regression bound. The
// benchmark therefore times a fixed probe of its own between every two
// measured segments and converts each segment's wall time to reference
// time: wall × referenceHostProbe / probe, with probe the mean of the
// probes taken just before and just after the segment. A segment
// measured while the host ran at its reference speed keeps its wall
// time. The probe is the benchmark's code, never the program's, so a
// change to the program moves the converted figures as it moves the
// wall-clock ones; the raw figures are printed in the environment record.
//
// The probe is shaped like the simulation that dominates the program's
// cost: a branchy read-modify-write walk over a 512 KiB table per CPU,
// like a cache or predictor model.
const (
	hostProbeTable = 1 << 16 // uint64s: 512 KiB per goroutine
	hostProbeSteps = 4_000_000
	// referenceHostProbe is the probe's median duration on the development
	// VM (2 vCPUs, Intel Xeon at 2.1 GHz). It is fixed, like the open-loop
	// rates, so every commit is converted with the same constant.
	referenceHostProbe = 30 * time.Millisecond
)

// hostProbe holds the probe's tables, allocated and touched once so no
// probe pays for page faults.
type hostProbe struct {
	tables [][]uint64
	sink   []uint64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{sink: make([]uint64, runtime.NumCPU())}
	for range runtime.NumCPU() {
		t := make([]uint64, hostProbeTable)
		for i := range t {
			t[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		p.tables = append(p.tables, t)
	}
	return p
}

// measure runs the probe on nproc goroutines at once, as the closed loop
// keeps nproc programs in flight, and returns its wall time.
func (p *hostProbe) measure() time.Duration {
	var wg sync.WaitGroup
	t := time.Now()
	for g, tab := range p.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.sink[g] += hostProbeWalk(tab)
		}()
	}
	wg.Wait()
	return time.Since(t)
}

// hostProbeWalk is the probe kernel: xorshift addresses into the table, and
// a data-dependent branch on every step.
func hostProbeWalk(t []uint64) uint64 {
	x := uint64(88172645463325252)
	var hits uint64
	for range hostProbeSteps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a := x & (hostProbeTable - 1)
		switch v := t[a]; {
		case v&7 == x&7:
			hits++
			t[a] = v + 1
		case v&3 == 0:
			t[(a+64)&(hostProbeTable-1)] ^= x
		default:
			t[a] = v ^ x>>3
		}
	}
	return hits
}

// toReference converts a wall-clock duration to reference time, given
// the probes taken before and after it.
func toReference(wall, before, after time.Duration) float64 {
	return float64(wall) * float64(2*referenceHostProbe) / float64(before+after)
}
