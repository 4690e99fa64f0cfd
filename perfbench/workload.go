package main

import (
	"fmt"
	"strconv"
	"strings"

	"rhmd/internal/attack"
	"rhmd/internal/core"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// digestSeed is the workload seed whose first digestEvents verdicts are
// pinned by workload.digest. Every run replays that prefix through its
// own fleet, so a change that breaks the engine and DecideTrace the same
// way still fails, whatever --seed the run was given.
const (
	digestSeed   = 1
	digestEvents = 32
)

// workload is one traffic mix: the inputs it generates and the fleet it
// runs them on. rate is the fixed open-loop offered load, in programs per
// second of reference time (see hostspeed.go), calibrated once on a
// 2-CPU VM and never recomputed per run, so two commits see the same
// load. It is a third of the closed-loop throughput: at half,
// contention from other tenants of a shared host pushed the fleet close
// to saturation and the latency tail swung by more than its bound.
type workload struct {
	name     string
	traceLen int
	// shards and workers size the fleet; workers 0 means nproc.
	shards  int
	workers int
	// durable gives every shard a checkpoint directory (strict
	// durability, one WAL fsync per verdict), an obs.Tracer (capacity
	// 4096) and a span.Recorder at default sampling, as
	// rhmd-monitor -checkpoint-dir … -trace-verdicts runs.
	durable bool
	rate    float64
	// population is the number of generated base programs. reuse keeps
	// each base program's execution seed, so events repeat inputs;
	// otherwise every event gets a fresh seed and is a distinct program.
	population int
	reuse      bool
	// hotFraction of events ride one of hotStreams routing streams.
	hotFraction float64
	hotStreams  int
	// evasiveMax is the top of the evasive-fraction ramp, which climbs
	// from 0 over every evasiveRamp events.
	evasiveMax float64
	// digest pins the verdicts of the digestSeed prefix (see digestOf).
	digest string
}

const evasiveRamp = 512

var workloads = []*workload{
	// Simulation is ~95% of the cost here: "simulate once" work shows its
	// full effect, WAL and telemetry changes none.
	{
		name:       "saturate-long",
		traceLen:   80_000,
		shards:     1,
		rate:       100,
		population: 96,
		digest:     "7bd826d6d798d882",
	},
	// Skewed routing onto one hot shard, three stores fsyncing at once,
	// repeated inputs (the only place reuse can pay) and the paper's
	// evasive variants.
	{
		name:        "fleet-hotkey",
		traceLen:    20_000,
		shards:      3,
		workers:     1,
		durable:     true,
		rate:        200,
		population:  28,
		reuse:       true,
		hotFraction: 0.7,
		hotStreams:  2,
		evasiveMax:  0.8,
		digest:      "40000fb4088a65c7",
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// inputs generates a workload's events from a seed. Event i is a pure
// function of (workload, seed, i), so a run can generate as many as its
// time allows and the reference check can find any of them again.
type inputs struct {
	w    *workload
	seed uint64
	// tag prefixes every program's unique part (the run record sets it),
	// so two input sets can share a fleet without sharing a name.
	tag  string
	base []*prog.Program
	// evasive[b] is the injected variant of base[b] (nil for benign
	// bases and for workloads without an evasive ramp).
	evasive []*prog.Program
}

// event is one submission and the identity its verdict is checked by.
type event struct {
	p       *prog.Program
	base    int
	evasive bool
}

// refKey identifies a program's behaviour: the same base program, variant
// and execution seed always yield the same verdict.
type refKey struct {
	in      *inputs
	base    int
	evasive bool
	seed    uint64
}

// newInputs generates the base program population for seed. The
// workload corpus is keyed apart from the training corpus, so no seed
// makes the two coincide.
func newInputs(w *workload, seed uint64) (*inputs, error) {
	r := rng.NewKeyed(seed, "perfbench-workload/"+w.name)
	fams := prog.AllFamilies()
	in := &inputs{w: w, seed: seed}
	for i := 0; i < w.population; i++ {
		fam := fams[i%len(fams)]
		p, err := prog.Generate(fam, r.Split(), fmt.Sprintf("%s-%03d", fam.Family, i), r.Uint64())
		if err != nil {
			return nil, fmt.Errorf("generating %s input %d: %w", w.name, i, err)
		}
		in.base = append(in.base, p)
	}
	return in, nil
}

// arm builds the evasive variants: a least-weight injection plan against
// the pool's first detector (instructions at the longest period), the
// white-box attacker of the paper's §5, applied to every malware base.
func (in *inputs) arm(pool *core.RHMD) error {
	if in.w.evasiveMax == 0 {
		return nil
	}
	plan, err := attack.BuildPlan(pool.Detectors[0], attack.LeastWeight, 4, prog.BlockLevel, rng.NewKeyed(in.seed, "perfbench-plan"))
	if err != nil {
		return fmt.Errorf("building evasion plan: %w", err)
	}
	in.evasive = make([]*prog.Program, len(in.base))
	for b, p := range in.base {
		if p.Label != prog.Malware {
			continue
		}
		if in.evasive[b], err = plan.Apply(p); err != nil {
			return fmt.Errorf("injecting %s: %w", p.Name, err)
		}
	}
	return nil
}

// mix is splitmix64: the per-event hash every draw of event i derives
// from.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// event returns event i. Its name is "<stream>#<tag><base>-<i>": the
// fleet routes on the stream and the index makes the name unique.
func (in *inputs) event(i int) event {
	w := in.w
	h := mix(in.seed*0x2545f4914f6cdd1d ^ uint64(i))
	b := int(h % uint64(len(in.base)))
	src := in.base[b]
	e := event{base: b}
	if in.evasive != nil && in.evasive[b] != nil {
		frac := w.evasiveMax * float64(i%evasiveRamp) / float64(evasiveRamp-1)
		if unit(mix(h^1)) < frac {
			src, e.evasive = in.evasive[b], true
		}
	}
	stream := fmt.Sprintf("s%07d", i)
	if w.hotStreams > 0 && unit(mix(h^2)) < w.hotFraction {
		stream = fmt.Sprintf("hot-%d", mix(h^3)%uint64(w.hotStreams))
	}
	// A shallow copy: the CFG is shared, only identity (and, for
	// distinct-program workloads, the execution seed) differs. The
	// engine never mutates a submitted program.
	p := *src
	p.Name = stream + "#" + in.tag + src.Name + "-" + strconv.Itoa(i)
	if !w.reuse {
		p.Seed = mix(h ^ 4)
	}
	e.p = &p
	return e
}
