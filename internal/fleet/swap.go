package fleet

import (
	"fmt"

	"rhmd/internal/core"
	"rhmd/internal/monitor"
)

// SwapPool commits a retrained detector pool across the fleet: the
// fleet-level target epoch advances by one and every serving shard is
// caught up to it via its engine's epoch-versioned SwapPool (in-flight
// verdicts finish on each shard's old pool; the swap is WAL-logged per
// shard). Shards that are down — or whose swap fails — are skipped and
// counted in rhmd_fleet_pool_swap_errors_total; they converge to the
// target pool during their next restart's catch-up pass, so the fleet
// invariant is eventual, not atomic: all *serving* shards sit at the
// fleet epoch. SwapPool fails only when no serving shard could swap.
//
// Fleet and monitor.Engine share this method's signature, so
// driftguard.Swapper drives either interchangeably.
func (f *Fleet) SwapPool(r *core.RHMD) (uint64, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, fmt.Errorf("fleet: pool swap on closed fleet")
	}
	f.pool.Store(r)
	target := f.poolEpoch.Add(1)
	f.ins.poolEpoch.Set(float64(target))
	type live struct {
		sh  *shard
		eng *monitor.Engine
	}
	var serving []live
	for _, sh := range f.shards {
		if sh.shardState() == Serving {
			serving = append(serving, live{sh, sh.eng.Load()})
		}
	}
	f.mu.Unlock()

	swapped := 0
	var firstErr error
	for _, l := range serving {
		if err := f.catchUp(l.sh, l.eng, r, target); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		swapped++
	}
	if swapped == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("no serving shard")
		}
		return 0, fmt.Errorf("fleet: pool swap to epoch %d landed on no shard: %w", target, firstErr)
	}
	return target, nil
}

// PoolEpoch returns the fleet-level target pool epoch (what every
// serving shard converges to).
func (f *Fleet) PoolEpoch() uint64 { return f.poolEpoch.Load() }

// Pool returns the fleet-level target pool: the construction pool, a
// later generation that durable shards restored, or the last SwapPool
// target — the pool a drift guard starts from.
func (f *Fleet) Pool() *core.RHMD { return f.pool.Load() }

// catchUp drives one shard engine forward to the fleet target epoch,
// re-applying the current pool once per missed epoch (intermediate pool
// bytes are not replayed — only the final generation matters, and each
// hop is WAL-logged with its fingerprint so restore stays exact).
func (f *Fleet) catchUp(sh *shard, eng *monitor.Engine, r *core.RHMD, target uint64) error {
	for eng.PoolEpoch() < target {
		if _, err := eng.SwapPool(r); err != nil {
			f.ins.swapErrs[sh.idx].Inc()
			return fmt.Errorf("fleet: shard %d pool swap: %w", sh.idx, err)
		}
	}
	return nil
}

// alignPools runs at construction time, after every shard restored its
// own checkpoint: durable shards may come back at different pool epochs
// (one died mid-campaign and missed swaps). The fleet adopts the most
// advanced shard's generation as the target and catches the laggards
// up, restoring the all-serving-shards-at-one-epoch invariant before
// traffic starts. Best effort: a shard whose catch-up swap fails counts
// a swap error and serves at its restored epoch until its next restart.
func (f *Fleet) alignPools() {
	var target uint64
	cur := f.rhmd
	for _, sh := range f.shards {
		eng := sh.eng.Load()
		if e := eng.PoolEpoch(); e > target {
			target, cur = e, eng.Pool()
		}
	}
	f.pool.Store(cur)
	f.poolEpoch.Store(target)
	f.ins.poolEpoch.Set(float64(target))
	if target == 0 {
		return
	}
	for _, sh := range f.shards {
		_ = f.catchUp(sh, sh.eng.Load(), cur, target) // counted in swapErrs
	}
}
