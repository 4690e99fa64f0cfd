package fleet

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"rhmd/internal/core"
	"rhmd/internal/obs/slo"
)

// drainFleet submits programs (each renamed with tag) to a started
// fleet, closes it and returns the number of delivered reports.
func drainFleet(t *testing.T, fl *Fleet, tag string, programs int) int {
	t.Helper()
	f := getFixture(t)
	go func() {
		for _, p := range f.programs[:programs] {
			if !fl.Submit(clone(p, tag)) {
				t.Errorf("submit of %q shed with roomy queue", p.Name)
			}
		}
		fl.Close()
	}()
	got := 0
	for range fl.Results() {
		got++
	}
	return got
}

// TestFleetObjectivesEvaluate: the default objectives that read engine
// families (verdict-latency, shed-rate, durability) evaluate against a
// 3-shard fleet registry, because the fleet links every shard's engine
// registry into its own.
func TestFleetObjectivesEvaluate(t *testing.T) {
	f := getFixture(t)
	tmpl := engineTemplate(f)
	tmpl.QueueDepth = len(f.programs)
	fl, err := New(f.rhmd, Config{Shards: 3, CheckpointDir: t.TempDir(), Engine: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start(context.Background())
	delivered := drainFleet(t, fl, "slo", len(f.programs))

	snap := fl.Registry().Snapshot()
	if got := snap.CounterWith("rhmd_monitor_programs_total", "processed"); got != uint64(delivered) {
		t.Fatalf("fleet registry counts %d processed, the fleet delivered %d", got, delivered)
	}
	want := map[string]bool{"verdict-latency": true, "shed-rate": true, "durability": true}
	for _, o := range slo.DefaultObjectives(0) {
		switch {
		case want[o.Name]:
			delete(want, o.Name)
			bad, total := o.Bad(snap), o.Total(snap)
			if ratio := bad / total; math.IsNaN(ratio) || total < float64(delivered) {
				t.Errorf("%s: bad %v / total %v = %v over %d verdicts", o.Name, bad, total, ratio, delivered)
			}
		case o.Name == "fleet-serving":
			if v := o.Value(snap); v != 1 {
				t.Errorf("fleet-serving reads %v, want 1", v)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("default objectives lack %v", want)
	}
}

// TestRestartRelinksShardSeries: a restarted shard's series on the
// fleet registry come from its new engine generation, and the verdicts
// it restored from its checkpoint are counted once, not once per
// generation.
func TestRestartRelinksShardSeries(t *testing.T) {
	f := getFixture(t)
	tmpl := engineTemplate(f)
	tmpl.QueueDepth = len(f.programs)
	fl, err := New(f.rhmd, Config{Shards: 2, CheckpointDir: t.TempDir(), Engine: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start(context.Background())
	results := make(chan int)
	go func() {
		n := 0
		for range fl.Results() {
			n++
		}
		results <- n
	}()
	half := len(f.programs) / 2
	for _, p := range f.programs[:half] {
		fl.Submit(clone(p, "before"))
	}
	processed := func(shard string) uint64 {
		return fl.Registry().Snapshot().CounterWith("rhmd_monitor_programs_total", "processed", shard)
	}
	waitFor(t, 30e9, "pre-kill deliveries", func() bool {
		st := fl.Stats()
		return st.Health[0].Delivered+st.Health[1].Delivered == uint64(half)
	})
	old := fl.shards[0].eng.Load()
	before := old.Stats().ProgramsProcessed
	if before == 0 {
		t.Fatal("shard 0 served nothing before the kill; the test needs restored verdicts")
	}

	// Killed idle: nothing is in flight, so the new generation restores
	// exactly what the old one processed.
	fl.Kill(0, "relink-test")
	waitFor(t, 30e9, "shard 0 restart", func() bool {
		sh := fl.Stats().Health[0]
		return sh.State == Serving && sh.Restarts == 1
	})
	cur := fl.shards[0].eng.Load()
	if cur == old {
		t.Fatal("shard 0 still serves its old generation")
	}
	if got := fl.Stats().Health[0].RestoredVerdicts; got != before {
		t.Fatalf("restored %d verdicts, the old generation processed %d", got, before)
	}
	if got := processed("0"); got != before {
		t.Fatalf("shard 0 series reads %d processed after restart, want the %d restored once", got, before)
	}
	// The latency histogram is not restored: the new generation's empty
	// one is what the fleet registry links now.
	var sb strings.Builder
	if err := fl.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `rhmd_monitor_verdict_latency_seconds_count{shard="0"} 0`+"\n") {
		t.Fatalf("shard 0 latency series still reads the old generation:\n%s", sb.String())
	}

	for _, p := range f.programs[half:] {
		fl.Submit(clone(p, "after"))
	}
	fl.Close()
	delivered := <-results
	if delivered != len(f.programs) {
		t.Fatalf("delivered %d of %d programs", delivered, len(f.programs))
	}
	if got := processed("0") + processed("1"); got != uint64(delivered) {
		t.Fatalf("fleet registry counts %d processed for %d delivered verdicts", got, delivered)
	}
	if got := processed("0"); got != cur.Stats().ProgramsProcessed {
		t.Fatalf("shard 0 series reads %d, its current generation %d", got, cur.Stats().ProgramsProcessed)
	}
}

// TestFleetPoolAfterReopen: a fleet reopened over a checkpoint written
// after a SwapPool targets the swapped pool, not its construction base —
// the pool a drift guard must start from.
func TestFleetPoolAfterReopen(t *testing.T) {
	f := getFixture(t)
	next := fleetVariantPool(t, f.rhmd)
	tmpl := engineTemplate(f)
	tmpl.QueueDepth = len(f.programs)
	tmpl.ResolvePool = func(epoch, fingerprint uint64) (*core.RHMD, error) {
		switch fingerprint {
		case f.rhmd.Fingerprint():
			return f.rhmd, nil
		case next.Fingerprint():
			return next, nil
		}
		return nil, fmt.Errorf("unknown fingerprint %016x", fingerprint)
	}
	dir := t.TempDir()
	fl, err := New(f.rhmd, Config{Shards: 2, CheckpointDir: dir, Engine: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Pool() != f.rhmd {
		t.Fatal("a fresh fleet does not target its construction pool")
	}
	fl.Start(context.Background())
	if _, err := fl.SwapPool(next); err != nil {
		t.Fatal(err)
	}
	drainFleet(t, fl, "swapped", 4)

	re, err := New(f.rhmd, Config{Shards: 2, CheckpointDir: dir, Engine: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	re.Start(context.Background())
	defer drainFleet(t, re, "reopened", 0)
	if got := re.Pool().Fingerprint(); got != next.Fingerprint() || re.PoolEpoch() != 1 {
		t.Fatalf("reopened fleet targets %016x at epoch %d, want the swapped pool %016x at epoch 1",
			got, re.PoolEpoch(), next.Fingerprint())
	}
}

// TestFleetRefusesRootCheckpoint: a CheckpointDir that is itself a
// checkpoint directory (a single store's layout) is refused with the
// shard-0 path the state belongs under, instead of starting empty.
func TestFleetRefusesRootCheckpoint(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	first, err := New(f.rhmd, Config{Shards: 1, CheckpointDir: dir, Engine: engineTemplate(f)})
	if err != nil {
		t.Fatal(err)
	}
	first.Start(context.Background())
	drainFleet(t, first, "root", 2)

	again, err := New(f.rhmd, Config{Shards: 1, CheckpointDir: dir, Engine: engineTemplate(f)})
	if err != nil {
		t.Fatalf("a fleet root with shard subdirectories was refused: %v", err)
	}
	again.Start(context.Background())
	drainFleet(t, again, "again", 0)

	// shard-0 itself is a single store's directory.
	_, err = New(f.rhmd, Config{Shards: 1, CheckpointDir: filepath.Join(dir, "shard-0"), Engine: engineTemplate(f)})
	if err == nil || !strings.Contains(err.Error(), "shard-0/") {
		t.Fatalf("New over a root checkpoint = %v, want a refusal naming shard-0/", err)
	}
}
