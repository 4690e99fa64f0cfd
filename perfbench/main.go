// Command perfbench is the repository benchmark. It runs one workload on
// the serving path an operator deploys (a fleet.Fleet over the pool
// rhmd-monitor trains), checks every verdict against the sequential
// core.RHMD.DecideTrace, and prints every metric by name with its unit.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload saturate-long --seed 7 --seconds 24 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Any wrong, missing or refused verdict makes the exit code
// non-zero. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/fleet"
)

// measuredSetups is how many times an untraced run sets up.
const measuredSetups = 5

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// work holds the run's checkpoint stores (removed at exit) and the
	// traced run's span file.
	work string
	// setups is how many times set-up is measured (measuredSetups, or
	// fewer in the tests); setup_s is the median.
	setups int
	// plantWrong corrupts one reference verdict, to prove the check fails.
	plantWrong bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envRecord describes where the numbers were taken. Numbers from
// different records are not comparable; the benchmark never compares
// against numbers it did not take in the same run.
type envRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Platform   string  `json:"platform"`
	FSType     string  `json:"checkpoint_fs"`
	FsyncUs    float64 `json:"fsync_calibration_us"`
	Digest     string  `json:"digest"`
	Events     int     `json:"events"`
	Failures   string  `json:"first_failure,omitempty"`
	SendLagMs  float64 `json:"send_lag_p99_ms"`
	// OpenSamples is the number of open-loop latencies an untraced run
	// pooled, and LatP90Ms and LatP99Ms their 90th and 99th percentiles
	// in reference time. They are reported here and not gated: stalls of
	// the shared host's vCPUs set them, and across seeds they spread by
	// more than any bound (see README.md).
	OpenSamples int     `json:"open_samples,omitempty"`
	LatP90Ms    float64 `json:"lat_p90_ms,omitempty"`
	LatP99Ms    float64 `json:"lat_p99_ms,omitempty"`
	// ProbeMs is the median host probe of an untraced run (see
	// hostspeed.go), and the Raw figures are the gated ones before their
	// conversion to reference time.
	ProbeMs       float64 `json:"host_probe_ms,omitempty"`
	RawThroughput float64 `json:"raw_throughput_vps,omitempty"`
	RawLatP50Ms   float64 `json:"raw_lat_p50_ms,omitempty"`
	RawLatP75Ms   float64 `json:"raw_lat_p75_ms,omitempty"`
	RawSetupS     float64 `json:"raw_setup_s,omitempty"`
	// RunMaxRSSMb is the peak resident memory of the whole run, set-up
	// and reference check included (getrusage).
	RunMaxRSSMb float64 `json:"run_max_rss_mb,omitempty"`
}

func main() {
	o := options{setups: measuredSetups}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "saturate-long", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "workload input seed")
	flag.Float64Var(&o.seconds, "seconds", 24, "measured seconds: half closed loop, half open loop")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "work directory")
	flag.Parse()
	o.trace = traceFlag == 1
	res, env, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(env, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d submissions failed: %s\n", res.Failed, res.Attempted, env.Failures)
		os.Exit(1)
	}
}

func printReport(env *envRecord, res *result) error {
	line, err := json.Marshal(map[string]*envRecord{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// run performs one run of one workload.
func run(ctx context.Context, o options) (*result, *envRecord, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, nil, err
	}
	work := filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	env, err := environment(w, o.seed, work)
	if err != nil {
		return nil, nil, err
	}
	if w.durable && env.FSType == "tmpfs" {
		return nil, nil, fmt.Errorf("%s needs a real disk for its checkpoints, and %s is tmpfs, where fsync is free", w.name, work)
	}

	in, err := newInputs(w, o.seed)
	if err != nil {
		return nil, nil, err
	}
	din, err := newInputs(w, digestSeed)
	if err != nil {
		return nil, nil, err
	}

	// Set up several times; keep the last fleet and report the median.
	// The traced run does not report set-up time and sets up once.
	n := max(o.setups, 1)
	if o.trace {
		n = 1
	}
	host := newHostProbe()
	var setups, rawSetups []float64
	var pool *core.RHMD
	var f *fleet.Fleet
	dir := ""
	for k := 0; k < n; k++ {
		if f != nil {
			drain(f)
		}
		// Each set-up starts from a collected heap, as a deployment's
		// single set-up does, so the previous one's garbage does not
		// cost this one collector time.
		runtime.GC()
		dir = filepath.Join(work, fmt.Sprintf("setup-%d", k))
		before := host.measure()
		var d time.Duration
		if pool, f, d, err = setup(ctx, w, dir); err != nil {
			return nil, nil, err
		}
		setups = append(setups, toReference(d, before, host.measure())/1e9)
		rawSetups = append(rawSetups, d.Seconds())
	}
	if err := in.arm(pool); err != nil {
		return nil, nil, err
	}
	if err := din.arm(pool); err != nil {
		return nil, nil, err
	}

	// Input set 0 is the digest prefix, set 1 the workload's own events.
	rec := newRunRecord(din, in)
	d := rec.attach(f, false)
	d.runBatch(0, digestEvents, phaseDigest)
	if o.trace {
		return runTraced(ctx, o, w, env, pool, rec, d, dir, work)
	}

	// max_rss_mb is the serving peak: set-up's garbage (training is
	// set-up's peak) goes back to the kernel, as the runtime's scavenger
	// would return it over a deployment's first minutes, and the peak
	// count restarts here.
	if err := resetPeakRSS(); err != nil {
		return nil, nil, err
	}
	// Alternate closed- and open-loop segments over measureRounds
	// rounds, with a host probe between every two segments.
	seg := time.Duration(o.seconds / 2 / measureRounds * float64(time.Second))
	var closed, open []interval
	hostTimes := []time.Duration{host.measure()}
	next := 0
	for range measureRounds {
		var iv interval
		iv, next = d.runClosed(1, next, seg, math.MaxInt)
		hostTimes = append(hostTimes, host.measure())
		closed = append(closed, iv.at(hostTimes))
		// The open loop offers the workload's rate per second of
		// reference time, so a slower host is not also a busier one.
		h := hostTimes[len(hostTimes)-1]
		iv.start = rec.now()
		next = d.runOpen(1, next, seg, w.rate*toReference(1, h, h))
		iv.end = rec.now()
		hostTimes = append(hostTimes, host.measure())
		open = append(open, iv.at(hostTimes))
	}
	d.stop()
	peak, err := peakRSSBytes()
	if err != nil {
		return nil, nil, err
	}
	res, ok, err := verify(pool, rec, w, env, o.plantWrong, checkRestore(ctx, w, pool, dir, rec, false))
	if err != nil {
		return nil, nil, err
	}
	var ms []float64
	for _, t := range hostTimes {
		ms = append(ms, float64(t)/1e6)
	}
	env.ProbeMs = quantile(ms, 0.5)
	env.RawSetupS = quantile(rawSetups, 0.5)
	env.RunMaxRSSMb = float64(maxRSSBytes()) / (1 << 20)
	env.RawThroughput = throughput(rec.slots, ok, false, closed, false)
	rawLat, lag := openLatency(rec.slots, ok, false, rec.now(), nil)
	env.RawLatP50Ms, env.RawLatP75Ms = quantile(rawLat, 0.5)/1e6, quantile(rawLat, 0.75)/1e6
	env.SendLagMs = quantile(lag, 0.99) / 1e6
	lat, _ := openLatency(rec.slots, ok, false, rec.now(), open)
	env.OpenSamples = len(lat)
	env.LatP90Ms, env.LatP99Ms = quantile(lat, 0.9)/1e6, quantile(lat, 0.99)/1e6
	res.put(endToEndUnits, "throughput_vps", throughput(rec.slots, ok, false, closed, true))
	res.put(endToEndUnits, "lat_p50_ms", quantile(lat, 0.5)/1e6)
	res.put(endToEndUnits, "lat_p75_ms", quantile(lat, 0.75)/1e6)
	res.put(endToEndUnits, "setup_s", quantile(setups, 0.5))
	res.put(endToEndUnits, "max_rss_mb", float64(peak)/(1<<20))
	return res, env, nil
}

// verify checks every verdict of the run against the sequential
// reference, the digest prefix against its pinned digest, and takes the
// restart check's outcome. It returns the result (metrics still empty)
// and which slots hold a correct verdict.
func verify(pool *core.RHMD, rec *runRecord, w *workload, env *envRecord, plant bool, restoreErr error) (*result, []bool, error) {
	ref, err := reference(pool, rec)
	if err != nil {
		return nil, nil, err
	}
	if plant {
		plantWrong(rec, ref)
	}
	var fails failures
	ok := make([]bool, len(rec.slots))
	for i := range rec.slots {
		ok[i] = rec.judge(&rec.slots[i], ref, &fails)
	}
	env.Digest = rec.digest()
	env.Events = len(rec.slots)
	env.Failures = fails.firstWrong
	failed := fails.total() + rec.strays
	if rec.firstErr != "" {
		env.Failures = rec.firstErr + "; " + env.Failures
	}
	if env.Digest != w.digest {
		failed++
		env.Failures = fmt.Sprintf("verdict digest of seed %d is %s, want %s; %s", digestSeed, env.Digest, w.digest, env.Failures)
	}
	if restoreErr != nil {
		failed++
		env.Failures = restoreErr.Error() + "; " + env.Failures
	}
	return &result{Correct: failed == 0, Attempted: len(rec.slots), Failed: failed, Metrics: map[string]metric{}}, ok, nil
}

func (r *result) put(units map[string]string, name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: units[name]}
}
