package obs

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// shardRegistry builds one engine-like registry: a labeled counter, a
// scalar gauge and a scalar histogram.
func shardRegistry(processed, shed uint64, depth float64, obs ...float64) *Registry {
	r := NewRegistry()
	progs := r.CounterVec("rhmd_programs_total", "Programs by outcome.", "outcome")
	progs.With("processed").Add(processed)
	progs.With("shed").Add(shed)
	r.Gauge("rhmd_queue_depth", "Queue depth.").Set(depth)
	h := r.Histogram("rhmd_latency_seconds", "Latency.", []float64{0.1, 1})
	for _, v := range obs {
		h.Observe(v)
	}
	return r
}

func TestLinkRendersShardSeries(t *testing.T) {
	parent := NewRegistry()
	parent.Counter("rhmd_fleet_shed_total", "Fleet sheds.").Add(2)
	parent.Link("shard", "0", shardRegistry(5, 1, 3, 0.05))
	parent.Link("shard", "1", shardRegistry(7, 0, 4, 0.5, 2))

	var buf bytes.Buffer
	if err := parent.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"rhmd_fleet_shed_total 2\n",
		`rhmd_programs_total{outcome="processed",shard="0"} 5` + "\n",
		`rhmd_programs_total{outcome="processed",shard="1"} 7` + "\n",
		`rhmd_programs_total{outcome="shed",shard="0"} 1` + "\n",
		`rhmd_queue_depth{shard="1"} 4` + "\n",
		`rhmd_latency_seconds_bucket{shard="0",le="0.1"} 1` + "\n",
		`rhmd_latency_seconds_bucket{shard="1",le="+Inf"} 2` + "\n",
		`rhmd_latency_seconds_count{shard="1"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	for _, name := range []string{"rhmd_programs_total", "rhmd_queue_depth", "rhmd_latency_seconds"} {
		if n := strings.Count(out, "# TYPE "+name+" "); n != 1 {
			t.Errorf("%d TYPE headers for %s, want 1", n, name)
		}
		if n := strings.Count(out, "# HELP "+name+" "); n != 1 {
			t.Errorf("%d HELP headers for %s, want 1", n, name)
		}
	}
	// Shard 0's series come before shard 1's: link order, not string
	// order of the whole label set.
	if strings.Index(out, `outcome="shed",shard="0"`) > strings.Index(out, `outcome="processed",shard="1"`) {
		t.Errorf("linked parts interleaved:\n%s", out)
	}

	buf.Reset()
	if err := parent.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	om := buf.String()
	if n := strings.Count(om, "# TYPE rhmd_programs counter"); n != 1 {
		t.Errorf("%d OpenMetrics TYPE headers for rhmd_programs, want 1:\n%s", n, om)
	}
	if !strings.Contains(om, `rhmd_programs_total{outcome="processed",shard="1"} 7`) || !strings.HasSuffix(om, "# EOF\n") {
		t.Errorf("OpenMetrics exposition:\n%s", om)
	}
}

func TestLinkSnapshotSumsOverShards(t *testing.T) {
	parent := NewRegistry()
	parent.Link("shard", "0", shardRegistry(5, 1, 3, 0.05))
	parent.Link("shard", "1", shardRegistry(7, 2, 4, 0.5, 2))
	s := parent.Snapshot()

	fam := s["rhmd_programs_total"]
	if strings.Join(fam.Labels, ",") != "outcome,shard" {
		t.Fatalf("labels %v, want [outcome shard]", fam.Labels)
	}
	if got := fam.Children["processed\x001"].Counter; got != 7 {
		t.Fatalf("shard 1 processed %d, want 7", got)
	}
	if got := s.CounterWith("rhmd_programs_total", "processed"); got != 12 {
		t.Fatalf("CounterWith(processed) %d, want 12 summed over shards", got)
	}
	if got := s.CounterWith("rhmd_programs_total", "shed", "1"); got != 2 {
		t.Fatalf("CounterWith(shed, 1) %d, want 2", got)
	}
	if got := s.CounterWith("rhmd_programs_total", "proc"); got != 0 {
		t.Fatalf("CounterWith matched a partial label value: %d", got)
	}
	if got := s.Counter("rhmd_programs_total"); got != 15 {
		t.Fatalf("Counter %d, want 15", got)
	}
	if v, ok := s.GaugeWith("rhmd_queue_depth"); !ok || v != 7 {
		t.Fatalf("GaugeWith %v %v, want 7 summed over shards", v, ok)
	}
	if _, ok := s.GaugeWith("rhmd_programs_total", "processed"); ok {
		t.Fatal("GaugeWith matched a counter family")
	}
	if h := s.Histogram("rhmd_latency_seconds"); h == nil || h.Count != 3 {
		t.Fatalf("merged histogram %+v, want 3 observations", h)
	}
}

// Relinking under the same label value replaces the old child: its
// series vanish, and the new child's live values show through.
func TestRelinkReplacesChild(t *testing.T) {
	parent := NewRegistry()
	old := shardRegistry(5, 0, 1)
	parent.Link("shard", "0", old)
	next := shardRegistry(0, 0, 0)
	parent.Link("shard", "0", next)
	old.CounterVec("rhmd_programs_total", "", "outcome").With("processed").Add(100)
	next.CounterVec("rhmd_programs_total", "", "outcome").With("processed").Add(3)

	s := parent.Snapshot()
	if got := s.CounterWith("rhmd_programs_total", "processed"); got != 3 {
		t.Fatalf("processed %d after relink, want the new child's 3", got)
	}
	if n := len(s["rhmd_programs_total"].Children); n != 2 {
		t.Fatalf("%d series after relink, want one child's 2", n)
	}
}

func TestLinkConflictsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("name in parent and child", func() {
		parent := NewRegistry()
		parent.Gauge("rhmd_queue_depth", "")
		parent.Link("shard", "0", shardRegistry(0, 0, 0))
	})
	mustPanic("kind mismatch across children", func() {
		parent := NewRegistry()
		parent.Link("shard", "0", shardRegistry(0, 0, 0))
		other := NewRegistry()
		other.Counter("rhmd_queue_depth", "")
		parent.Link("shard", "1", other)
	})
	mustPanic("label mismatch across children", func() {
		parent := NewRegistry()
		parent.Link("shard", "0", shardRegistry(0, 0, 0))
		other := NewRegistry()
		other.CounterVec("rhmd_programs_total", "", "kind")
		parent.Link("shard", "1", other)
	})
	mustPanic("conflict registered after linking", func() {
		parent := NewRegistry()
		parent.Link("shard", "0", shardRegistry(0, 0, 0))
		parent.Gauge("rhmd_queue_depth", "").Set(1)
		_ = parent.WritePrometheus(&bytes.Buffer{})
	})
	mustPanic("invalid label", func() {
		NewRegistry().Link("bad-label", "0", NewRegistry())
	})
}

// Relinking races scrapes, snapshots and observations on the linked
// instruments; run under -race.
func TestLinkConcurrentScrape(t *testing.T) {
	parent := NewRegistry()
	parent.Link("shard", "0", shardRegistry(1, 0, 0))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := parent.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				_ = parent.Snapshot().CounterWith("rhmd_programs_total", "processed")
			}
		}()
	}
	for i := 0; i < 200; i++ {
		child := shardRegistry(uint64(i), 0, 0, 0.5)
		parent.Link("shard", strconv.Itoa(i%3), child)
		child.CounterVec("rhmd_programs_total", "", "outcome").With("processed").Inc()
	}
	close(stop)
	wg.Wait()
	if n := len(parent.Snapshot()["rhmd_programs_total"].Children); n != 6 {
		t.Fatalf("%d programs series over 3 linked shards, want 6", n)
	}
}
