package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"rhmd/internal/core"
)

// verdict is the part of a report the reference pins.
type verdict struct {
	Windows, Flagged int
	Malware          bool
}

// key identifies a slot's program for the reference.
func (r *runRecord) key(s *slot) refKey {
	ev := r.event(s)
	return refKey{r.sets[s.set], ev.base, ev.evasive, ev.p.Seed}
}

// reference computes the sequential core.RHMD.DecideTrace verdict of
// every distinct program the run submitted, on nproc goroutines, outside
// any timed region. Identical programs share one computation.
func reference(pool *core.RHMD, r *runRecord) (map[refKey]verdict, error) {
	todo := map[refKey]event{}
	for i := range r.slots {
		s := &r.slots[i]
		if k := r.key(s); todo[k].p == nil {
			todo[k] = r.event(s)
		}
	}
	type job struct {
		k  refKey
		ev event
	}
	jobs := make(chan job, len(todo))
	for k, ev := range todo {
		jobs <- job{k, ev}
	}
	close(jobs)
	var (
		mu   sync.Mutex
		out  = make(map[refKey]verdict, len(todo))
		errs []error
		wg   sync.WaitGroup
	)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				dec, err := pool.DecideTrace(j.ev.p, j.k.in.w.traceLen)
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("reference for %s: %w", j.ev.p.Name, err))
				} else {
					v := verdict{Windows: len(dec)}
					for _, d := range dec {
						v.Flagged += d.Decision
					}
					v.Malware = v.Windows > 0 && 2*v.Flagged >= v.Windows
					out[j.k] = v
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return out, nil
}

// failures counts failed submissions by cause.
type failures struct {
	shed, missing, wrong int
	firstWrong           string
}

func (f failures) total() int { return f.shed + f.missing + f.wrong }

// judge checks one slot against the reference: refused, no verdict, or a
// verdict that differs from DecideTrace or was degraded, dropped,
// errored or duplicated.
func (r *runRecord) judge(s *slot, ref map[refKey]verdict, f *failures) bool {
	switch {
	case !s.accepted:
		f.shed++
		return false
	case s.recv == 0:
		f.missing++
		return false
	}
	want, got := ref[r.key(s)], s.verdict()
	if s.failed || s.degraded != 0 || s.dropped != 0 || s.dups != 0 || got != want {
		if f.wrong == 0 {
			f.firstWrong = fmt.Sprintf("%s: got %+v (failed %v, degraded %d, dropped %d, duplicates %d), want %+v",
				r.event(s).p.Name, got, s.failed, s.degraded, s.dropped, s.dups, want)
		}
		f.wrong++
		return false
	}
	return true
}

// digest folds the verdicts of the digest prefix, in event order, into
// a 64-bit FNV-1a hex string.
func (r *runRecord) digest() string {
	h := fnv.New64a()
	for i := range r.slots {
		if s := &r.slots[i]; s.phase == phaseDigest {
			fmt.Fprintf(h, "%d:%d:%d:%t;", s.idx, s.windows, s.flagged, s.malware)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
