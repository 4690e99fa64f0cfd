package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/fleet"
)

// measureRounds is how many closed/open segment pairs an untraced run
// alternates, so a burst of contention from outside the process falls
// on both measures alike rather than on one of them.
const measureRounds = 16

// interval is a measured segment, in run-clock ns. ref is how much
// reference time one ns of it is worth (see hostspeed.go); 0 means it
// was not probed.
type interval struct {
	start, end int64
	ref        float64
}

// at sets the segment's conversion to reference time from the last two
// host probe times, taken just before and just after it.
func (iv interval) at(hostTimes []time.Duration) interval {
	n := len(hostTimes)
	iv.ref = toReference(1, hostTimes[n-2], hostTimes[n-1])
	return iv
}

// throughput is the number of correct verdicts that arrived inside the
// closed-loop segments, divided by the segments' total length: wall
// time, or reference time when ref is set.
func throughput(slots []slot, ok []bool, traced bool, ivs []interval, ref bool) float64 {
	n, total := 0, 0.0
	for _, iv := range ivs {
		d := float64(iv.end - iv.start)
		if ref {
			d *= iv.ref
		}
		total += d
		for i := range slots {
			if s := &slots[i]; ok[i] && s.traced == traced && s.phase == phaseClosed && s.recv > iv.start && s.recv <= iv.end {
				n++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(n) / (total / 1e9)
}

// openLatency returns, for the open-loop segments of one fleet, every
// verdict latency from its intended send time, and how late each send
// ran (ns). A failed verdict counts as still waiting at now. With segs,
// each latency is converted to reference time with the segment its
// send was due in; without, it stays wall time.
func openLatency(slots []slot, ok []bool, traced bool, now int64, segs []interval) (lat, lag []float64) {
	for i := range slots {
		s := &slots[i]
		if s.traced != traced || s.phase != phaseOpen {
			continue
		}
		lag = append(lag, float64(s.sent-s.due))
		l := float64(now - s.due)
		if ok[i] {
			l = float64(s.recv - s.due)
		}
		if segs != nil {
			k := sort.Search(len(segs), func(k int) bool { return segs[k].end > s.due })
			l *= segs[min(k, len(segs)-1)].ref
		}
		lat = append(lat, l)
	}
	return lat, lag
}

// countDelivered counts verdicts delivered in one phase of one fleet.
func countDelivered(slots []slot, traced bool, phase int8) int {
	n := 0
	for i := range slots {
		if s := &slots[i]; s.traced == traced && s.phase == phase && s.recv != 0 {
			n++
		}
	}
	return n
}

// checkRestore restarts a durable fleet over its checkpoint directory
// and requires it to restore exactly the verdicts the run received.
func checkRestore(ctx context.Context, w *workload, pool *core.RHMD, dir string, rec *runRecord, traced bool) error {
	if !w.durable {
		return nil
	}
	want := 0
	for i := range rec.slots {
		if s := &rec.slots[i]; s.traced == traced && s.recv != 0 {
			want++
		}
	}
	f, err := buildFleet(ctx, w, pool, dir, nil)
	if err != nil {
		return fmt.Errorf("restarting fleet over %s: %w", dir, err)
	}
	var got uint64
	for _, h := range f.Stats().Health {
		got += h.RestoredVerdicts
	}
	drain(f)
	if got != uint64(want) {
		return fmt.Errorf("restarted fleet over %s restored %d verdicts, the run received %d", dir, got, want)
	}
	return nil
}

// fleetCounters sums the fault and routing counters of fleets, all
// expected to stay 0 without injected faults.
func fleetCounters(fleets []*fleet.Fleet) map[string]float64 {
	m := map[string]float64{}
	for _, f := range fleets {
		st := f.Stats()
		m["monitor.shed"] += float64(st.Shed)
		for _, h := range st.Health {
			m["monitor.retries"] += float64(h.Stats.Retries)
			m["monitor.timeouts"] += float64(h.Stats.Timeouts)
			m["monitor.degraded"] += float64(h.Stats.Degraded)
			m["monitor.dropped_windows"] += float64(h.Stats.DroppedWindows)
			m["monitor.shed"] += float64(h.Stats.ProgramsShed)
			m["fleet.restarts"] += float64(h.Restarts)
			m["fleet.rerouted"] += float64(h.Rerouted)
		}
	}
	return m
}

// hotShardShare is the busiest shard's share of delivered verdicts.
func hotShardShare(slots []slot) float64 {
	counts := map[int16]int{}
	total, top := 0, 0
	for i := range slots {
		s := &slots[i]
		if s.recv == 0 {
			continue
		}
		counts[s.shard]++
		total++
		top = max(top, counts[s.shard])
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// plantWrong corrupts the reference verdict of the first delivered
// closed-loop program, so a correct engine must fail the check.
func plantWrong(r *runRecord, ref map[refKey]verdict) {
	for i := range r.slots {
		if s := &r.slots[i]; s.phase == phaseClosed && s.recv != 0 {
			k := r.key(s)
			v := ref[k]
			v.Malware = !v.Malware
			ref[k] = v
			return
		}
	}
}
