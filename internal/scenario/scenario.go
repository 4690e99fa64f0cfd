// Package scenario is the seeded, declarative load-scenario DSL behind
// the benchrunner. A Spec names a traffic shape (steady, burst, diurnal
// ramp, hot-key skew across fleet shards), an adversary mix whose
// evasive fraction ramps over the run, and an optional fault script
// (shard chaos reusing monitor.ShardScript, or a detector breaker
// storm). Compile turns the Spec into a replayable Corpus: a fixed
// event sequence — program, inter-arrival delay, routing stream — plus
// the armed injector and shard script, all a pure function of the
// Spec. Identical Specs compile to identical corpora (the determinism
// analyzer covers this package), so a BENCH report names the exact
// workload it measured via the corpus fingerprint.
package scenario

import (
	"fmt"
	"math"
	"time"

	"rhmd/internal/dataset"
	"rhmd/internal/isa"
	"rhmd/internal/monitor"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// ShapeKind selects the traffic shape: how inter-arrival delays and
// routing streams are laid out over the event sequence.
type ShapeKind uint8

// Traffic shapes.
const (
	// Steady paces events at a fixed rate (Shape.Rate events/second);
	// each event rides its own stream, spreading uniformly over shards.
	Steady ShapeKind = iota
	// Burst sends back-to-back groups of Shape.BurstLen events with no
	// intra-burst delay, separated by Shape.BurstGap of silence — the
	// queue-depth and shedding stressor.
	Burst
	// Diurnal modulates the steady rate sinusoidally over Shape.Cycles
	// full periods across the run, ramping load up and down like a
	// day/night traffic curve.
	Diurnal
	// HotKey skews routing: Shape.HotFraction of events ride one of
	// Shape.HotStreams hot streams (all events of a stream hash to one
	// shard), the rest ride unique cold streams. The shape that proves
	// per-shard isolation under load imbalance.
	HotKey
)

var shapeNames = [...]string{"steady", "burst", "diurnal", "hotkey"}

// String returns the shape mnemonic.
func (k ShapeKind) String() string {
	if int(k) < len(shapeNames) {
		return shapeNames[k]
	}
	return "shape(?)"
}

// Shape parameterizes the traffic shape. Zero values select documented
// defaults (see normalize).
type Shape struct {
	Kind ShapeKind
	// Rate is the average event rate in events/second for the paced
	// shapes (Steady, Diurnal). 0 means unpaced: every delay is zero
	// and the run measures engine saturation throughput.
	Rate float64
	// BurstLen and BurstGap shape Burst traffic: BurstLen back-to-back
	// events, then BurstGap of silence.
	BurstLen int
	BurstGap time.Duration
	// Cycles is the number of full sinusoidal periods a Diurnal run
	// sweeps across its event sequence.
	Cycles float64
	// HotFraction and HotStreams shape HotKey traffic.
	HotFraction float64
	HotStreams  int
}

// Adversary mixes evasive variants into the event sequence. The
// evasive fraction ramps linearly from Start at the first event to End
// at the last, modelling an attacker ramping up a campaign mid-run;
// each event's evasive/clean decision is a seeded draw against the
// ramped fraction at its index. Evasive events replay a
// prog.Inject-mutated variant of their base program (deep clone,
// Generation+1) built once per base program.
type Adversary struct {
	// Start and End bound the linear evasive-fraction ramp, both in
	// [0, 1]. Zero both to run a clean corpus.
	Start, End float64
	// PayloadLen is the number of injected instructions per site
	// (default 4).
	PayloadLen int
	// Level is the injection level (block or function).
	Level prog.InjectLevel
	// MemDelta is the fixed memory-op delta of the payload, steering
	// which memory-histogram bin the injected loads land in.
	MemDelta int64
}

// BreakerStorm arms a detector-fault storm via monitor.Injector: every
// detector gets an error profile of Rate for its first Until calls,
// driving breaker quarantine/restore churn while the run measures
// degraded-mode latency.
type BreakerStorm struct {
	// Rate is the per-call injected error probability in [0, 1].
	Rate float64
	// Until limits the storm to each detector's first Until calls, so
	// every storm ends and breakers close again (0 = whole run).
	Until uint64
	// Latency, when positive, also injects stalls at Rate (the storm
	// trips timeout paths, not just error paths).
	Latency time.Duration
}

// Faults scripts the failures a scenario injects while load runs.
type Faults struct {
	// Chaos is a monitor.ParseShardScript expression
	// ("shard:mode:arg,..."), applied to generation 0 of each targeted
	// fleet shard.
	Chaos string
	// Storm, when non-nil, arms a detector breaker storm on every
	// engine or shard.
	Storm *BreakerStorm
}

// EngineSpec sizes the engine(s) a scenario runs against. Zero values
// select the benchrunner defaults.
type EngineSpec struct {
	// Workers and QueueDepth configure each monitor.Engine.
	Workers    int
	QueueDepth int
	// Shards is the fleet's shard count; 0 selects the default of one
	// shard.
	Shards int
	// WindowDeadline bounds each window classification (0 = engine
	// default).
	WindowDeadline time.Duration
}

// Spec is one named, fully seeded scenario. Everything a run needs is
// in the Spec; Compile is a pure function of it.
type Spec struct {
	Name        string
	Description string
	// Seed derives every random decision in the compiled corpus: the
	// base program population, stream assignment, and evasive draws.
	Seed uint64
	// Events is the number of submissions in the compiled sequence
	// (default 128). Base programs are drawn round-robin from the
	// generated population, renamed per event.
	Events int
	// Corpus sizes the base program population. Zero-value fields are
	// filled with a small smoke-scale default; Corpus.Seed is always
	// overwritten with Spec.Seed.
	Corpus dataset.Config
	Shape  Shape
	// Adversary mixes evasive variants into the sequence.
	Adversary Adversary
	// Faults scripts shard chaos and breaker storms.
	Faults Faults
	// Engine sizes the engines under test.
	Engine EngineSpec
}

// Event is one submission in a compiled corpus: the program (uniquely
// named "<stream>#<base>-<index>", so fleet routing keys on the stream
// while every submission stays individually attributable in reports),
// the delay to wait after the previous event before submitting, and
// whether this event replays an evasive variant.
type Event struct {
	Program *prog.Program
	// Delay is the inter-arrival gap before this event (zero for the
	// first event and for unpaced shapes).
	Delay time.Duration
	// Stream is the fleet routing key (fleet.StreamKey(Program.Name)).
	Stream string
	// Evasive marks events that replay an injected variant.
	Evasive bool
}

// Corpus is a compiled, replayable scenario: submit Events in order,
// honouring Delays, against fleet shards armed with Injector and
// Script.
type Corpus struct {
	Spec   Spec
	Events []Event
	// Script is the parsed shard chaos script, nil when none.
	Script *monitor.ShardScript
	// Injector is the armed detector-fault injector, nil when the
	// scenario has no storm. Each engine/shard needs its own Injector
	// (call counts are per-instance state); NewInjector rebuilds an
	// identical one.
	Injector monitor.FaultInjector
}

// normalize fills defaulted Spec fields. It returns a copy; Specs are
// value types and callers keep theirs.
func (s Spec) normalize() Spec {
	if s.Events <= 0 {
		s.Events = 128
	}
	if s.Corpus.BenignPerFamily <= 0 {
		s.Corpus.BenignPerFamily = 2
	}
	if s.Corpus.MalwarePerFamily <= 0 {
		s.Corpus.MalwarePerFamily = 3
	}
	if s.Corpus.TraceLen < 1000 {
		s.Corpus.TraceLen = 40_000
	}
	s.Corpus.Seed = s.Seed
	if s.Shape.BurstLen <= 0 {
		s.Shape.BurstLen = 16
	}
	if s.Shape.BurstGap <= 0 {
		s.Shape.BurstGap = 5 * time.Millisecond
	}
	if s.Shape.Cycles <= 0 {
		s.Shape.Cycles = 2
	}
	if s.Shape.HotFraction <= 0 {
		s.Shape.HotFraction = 0.7
	}
	if s.Shape.HotStreams <= 0 {
		s.Shape.HotStreams = 2
	}
	if s.Adversary.PayloadLen <= 0 {
		s.Adversary.PayloadLen = 4
	}
	return s
}

// Validate reports Spec errors a Compile would otherwise surface late.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: unnamed spec")
	}
	if s.Adversary.Start < 0 || s.Adversary.Start > 1 || s.Adversary.End < 0 || s.Adversary.End > 1 {
		return fmt.Errorf("scenario %s: evasive fractions must be in [0,1] (start %v, end %v)",
			s.Name, s.Adversary.Start, s.Adversary.End)
	}
	if st := s.Faults.Storm; st != nil && (st.Rate < 0 || st.Rate > 1) {
		return fmt.Errorf("scenario %s: storm rate %v outside [0,1]", s.Name, st.Rate)
	}
	if s.Shape.HotFraction > 1 {
		return fmt.Errorf("scenario %s: hot fraction %v outside [0,1]", s.Name, s.Shape.HotFraction)
	}
	if _, err := monitor.ParseShardScript(s.Faults.Chaos); err != nil {
		return err
	}
	return nil
}

// Compile turns a Spec into its replayable Corpus. The result is a
// pure function of the Spec: same Spec (and therefore same Seed), same
// event sequence, same program bytes, same fingerprint — across
// processes and architectures.
func Compile(spec Spec) (*Corpus, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.normalize()

	base, err := dataset.Build(spec.Corpus)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	// One evasive variant per base program, built lazily: prog.Inject
	// deep-clones and re-lays-out, so only programs an evasive event
	// actually draws pay for it. Indexed by population position — never
	// a map, so there is no iteration-order hazard.
	var payload prog.Payload
	if spec.Adversary.Start > 0 || spec.Adversary.End > 0 {
		payload, err = buildPayload(spec.Adversary)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
	}
	evasive := make([]*prog.Program, len(base.Programs))

	// Seeded draw streams, one per decision axis, so changing one knob
	// (say HotFraction) cannot shift the draws behind another.
	hotR := rng.NewKeyed(spec.Seed, "scenario-hot/"+spec.Name)
	evR := rng.NewKeyed(spec.Seed, "scenario-evasive/"+spec.Name)

	c := &Corpus{Spec: spec, Events: make([]Event, 0, spec.Events)}
	for i := 0; i < spec.Events; i++ {
		p := base.Programs[i%len(base.Programs)]
		pi := i % len(base.Programs)

		ev := evasiveAt(spec.Adversary, i, spec.Events, evR)
		if ev {
			if evasive[pi] == nil {
				evasive[pi] = prog.Inject(p, payload, spec.Adversary.Level)
			}
			p = evasive[pi]
		}

		stream := streamFor(spec.Shape, i, hotR)
		// Shallow copy: Funcs/Mem are shared with the base (the engine
		// never mutates a submitted program), only identity differs.
		ren := *p
		ren.Name = fmt.Sprintf("%s#%s-%05d", stream, p.Name, i)
		c.Events = append(c.Events, Event{
			Program: &ren,
			Delay:   delayFor(spec.Shape, i, spec.Events),
			Stream:  stream,
			Evasive: ev,
		})
	}

	c.Script, _ = monitor.ParseShardScript(spec.Faults.Chaos) // validated above
	c.Injector = spec.NewInjector()
	return c, nil
}

// NewInjector builds a fresh armed fault injector for one engine or
// shard, or nil when the scenario has no storm. Injector call counts
// are per-instance state, so every engine in a fleet needs its own.
func (s Spec) NewInjector() monitor.FaultInjector {
	st := s.Faults.Storm
	if st == nil {
		return nil
	}
	in := monitor.NewInjector(s.Seed)
	profile := monitor.Profile{
		ErrorRate: st.Rate,
		Until:     st.Until,
	}
	if st.Latency > 0 {
		// Split the storm budget between error and stall faults.
		profile.ErrorRate = st.Rate / 2
		profile.LatencyRate = st.Rate / 2
		profile.Latency = st.Latency
	}
	in.SetDefault(profile)
	return in
}

// buildPayload assembles the adversary's injection payload: alternating
// ALU and load ops (the classic pattern from the paper's §5 evasion
// strategies — perturb both the instruction mix and the memory
// histogram), sized to PayloadLen.
func buildPayload(a Adversary) (prog.Payload, error) {
	ops := make([]isa.Op, 0, a.PayloadLen)
	candidates := isa.Injectable()
	alu, mem := candidates[:0:0], candidates[:0:0]
	for _, op := range candidates {
		if op.IsMem() {
			mem = append(mem, op)
		} else {
			alu = append(alu, op)
		}
	}
	for i := 0; i < a.PayloadLen; i++ {
		if i%2 == 1 && len(mem) > 0 {
			ops = append(ops, mem[i%len(mem)])
		} else {
			ops = append(ops, alu[i%len(alu)])
		}
	}
	return prog.NewPayload(ops, a.MemDelta)
}

// evasiveAt draws event i's evasive decision against the linearly
// ramped fraction. The draw stream is consumed for every event so the
// decision at index i does not depend on the ramp endpoints — only the
// threshold does.
func evasiveAt(a Adversary, i, n int, r *rng.Source) bool {
	u := r.Float64()
	if a.Start == 0 && a.End == 0 {
		return false
	}
	t := 0.0
	if n > 1 {
		t = float64(i) / float64(n-1)
	}
	frac := a.Start + (a.End-a.Start)*t
	return u < frac
}

// streamFor assigns event i its routing stream. The hot draw stream is
// consumed for every event regardless of shape, so switching shapes
// does not shift other seeded decisions.
func streamFor(sh Shape, i int, r *rng.Source) string {
	u := r.Float64()
	hot := r.Intn(1 << 16)
	if sh.Kind != HotKey {
		return fmt.Sprintf("s%05d", i)
	}
	if u < sh.HotFraction {
		return fmt.Sprintf("hot-%02d", hot%sh.HotStreams)
	}
	return fmt.Sprintf("s%05d", i)
}

// delayFor computes event i's inter-arrival delay from its index alone
// — no clocks, no state — so a compiled corpus replays with the same
// pacing everywhere.
func delayFor(sh Shape, i, n int) time.Duration {
	if i == 0 {
		return 0
	}
	switch sh.Kind {
	case Burst:
		if i%sh.BurstLen == 0 {
			return sh.BurstGap
		}
		return 0
	case Steady:
		if sh.Rate <= 0 {
			return 0
		}
		return time.Duration(float64(time.Second) / sh.Rate)
	case Diurnal:
		if sh.Rate <= 0 {
			return 0
		}
		base := float64(time.Second) / sh.Rate
		// Modulate the *delay* sinusoidally around the base period;
		// amplitude 0.9 keeps every delay positive while sweeping the
		// instantaneous rate ~19x between trough and peak.
		phase := 2 * math.Pi * sh.Cycles * float64(i) / float64(n)
		return time.Duration(base * (1 + 0.9*math.Sin(phase)))
	default: // HotKey is unpaced: skew, not pacing, is the stressor.
		return 0
	}
}

// Fingerprint folds the compiled event sequence — names, program
// seeds, generations, delays, streams, evasive bits — and the fault
// script into one 64-bit FNV-1a value. Two corpora with the same
// fingerprint replay the same workload; BENCH reports embed it so a
// regression comparison can refuse to compare different workloads.
func (c *Corpus) Fingerprint() uint64 {
	h := uint64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff // field separator
		h *= 1099511628211
	}
	mixU := func(v uint64) {
		for sh := 0; sh < 64; sh += 8 {
			h ^= (v >> sh) & 0xff
			h *= 1099511628211
		}
	}
	mix(c.Spec.Name)
	mixU(c.Spec.Seed)
	for _, e := range c.Events {
		mix(e.Program.Name)
		mixU(e.Program.Seed)
		mixU(uint64(e.Program.Generation))
		mixU(uint64(e.Delay))
		mix(e.Stream)
		if e.Evasive {
			mixU(1)
		} else {
			mixU(0)
		}
	}
	if c.Script != nil {
		for _, f := range c.Script.Faults {
			mixU(uint64(f.Shard))
			mixU(uint64(f.Kind))
			mixU(f.Arg)
		}
	}
	if st := c.Spec.Faults.Storm; st != nil {
		mixU(math.Float64bits(st.Rate))
		mixU(st.Until)
		mixU(uint64(st.Latency))
	}
	return h
}

// TotalDelay sums the corpus's inter-arrival delays — the paced floor
// of the run's wall time, useful for sizing deadlines around a replay.
func (c *Corpus) TotalDelay() time.Duration {
	var d time.Duration
	for _, e := range c.Events {
		d += e.Delay
	}
	return d
}

// EvasiveCount counts the evasive events in the corpus.
func (c *Corpus) EvasiveCount() int {
	n := 0
	for _, e := range c.Events {
		if e.Evasive {
			n++
		}
	}
	return n
}
