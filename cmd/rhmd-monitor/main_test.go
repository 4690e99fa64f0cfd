package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/fleet"
)

// tiny is the corpus every test serves: a dozen stream programs.
var tiny = []string{"-benign", "2", "-malware", "2", "-len", "20000"}

// syncBuffer is an output stream safe for the command's concurrent
// writers (verdict lines, drift and SLO events).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// jsonReport is the part of the -json survival report the tests read.
type jsonReport struct {
	Programs int              `json:"programs"`
	Fleet    fleet.FleetStats `json:"fleet"`
}

// runJSON runs the command with -json over the tiny corpus plus args
// and decodes its report; the run must succeed.
func runJSON(t *testing.T, args ...string) (jsonReport, string) {
	t.Helper()
	var stdout, stderr syncBuffer
	full := append(append(append([]string(nil), tiny...), "-json"), args...)
	if code := run(full, &stdout, &stderr); code != 0 {
		t.Fatalf("rhmd-monitor %v exited %d:\n%s", full, code, stderr.String())
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("decoding the -json report: %v\n%s", err, stdout.String())
	}
	return rep, stderr.String()
}

// TestDefaultServesOneShard: with default flags the monitor serves
// through a one-shard fleet, and that shard accounts for every program.
func TestDefaultServesOneShard(t *testing.T) {
	rep, _ := runJSON(t)
	if rep.Programs == 0 || rep.Fleet.Shards != 1 || len(rep.Fleet.Health) != 1 {
		t.Fatalf("report: %d programs over %d shards (%d health rows)", rep.Programs, rep.Fleet.Shards, len(rep.Fleet.Health))
	}
	sh := rep.Fleet.Health[0]
	if sh.Delivered != uint64(rep.Programs) || sh.Stats.ProgramsProcessed != uint64(rep.Programs) {
		t.Fatalf("shard 0 delivered %d, processed %d; the report counts %d programs",
			sh.Delivered, sh.Stats.ProgramsProcessed, rep.Programs)
	}
}

// TestCheckpointDirRestores: a second run over the same -checkpoint-dir
// restores the first run's verdicts from <dir>/shard-0/.
func TestCheckpointDirRestores(t *testing.T) {
	dir := t.TempDir()
	first, _ := runJSON(t, "-checkpoint-dir", dir)
	second, info := runJSON(t, "-checkpoint-dir", dir)
	got := second.Fleet.Health[0].RestoredVerdicts
	if got == 0 || got != first.Fleet.Health[0].Stats.ProgramsProcessed {
		t.Fatalf("second run restored %d verdicts, the first processed %d",
			got, first.Fleet.Health[0].Stats.ProgramsProcessed)
	}
	if !strings.Contains(info, "restored checkpoint: shard 0") {
		t.Fatalf("second run did not announce its restore:\n%s", info)
	}
}

// TestChaosRestartsShard: a scripted worker crash on shard 0 of two
// drains the stream, and the supervisor rebuilds the shard. The script
// arms at the first classification, and one worker behind a one-slot
// queue paces the feeder, so the crash lands while the stream is still
// being submitted — a shard that dies after the fleet closes is torn
// down, not rebuilt.
func TestChaosRestartsShard(t *testing.T) {
	rep, _ := runJSON(t, "-shards", "2", "-chaos", "0:panic:0", "-workers", "1", "-queue", "1")
	if rep.Fleet.Shards != 2 || rep.Programs == 0 {
		t.Fatalf("report: %d programs over %d shards", rep.Programs, rep.Fleet.Shards)
	}
	if sh := rep.Fleet.Health[0]; sh.Restarts < 1 || sh.LastRestart != "worker-crash" {
		t.Fatalf("shard 0: restarts=%d last-restart=%q, want a worker-crash restart", sh.Restarts, sh.LastRestart)
	}
}

// TestRefusesRootCheckpoint: a -checkpoint-dir holding a checkpoint at
// its root (the layout of a lone engine's store) is refused with the
// shard-0/ path the state belongs in, instead of starting empty.
func TestRefusesRootCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save([]byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr syncBuffer
	code := run(append(append([]string(nil), tiny...), "-checkpoint-dir", dir), &stdout, &stderr)
	if code == 0 || !strings.Contains(stderr.String(), "shard-0/") {
		t.Fatalf("exit %d, stderr:\n%s\nwant a refusal naming shard-0/", code, stderr.String())
	}
}

// TestMetricsCarryShardLabel: /metrics serves every shard's engine
// series under a shard label, and the event ring's drop counter once.
func TestMetricsCarryShardLabel(t *testing.T) {
	for _, shards := range []string{"1", "3"} {
		t.Run("shards-"+shards, func(t *testing.T) {
			t.Parallel()
			body := scrapeDuringHold(t, "-shards", shards)
			for _, want := range []*regexp.Regexp{
				regexp.MustCompile(`(?m)^rhmd_monitor_programs_total\{outcome="processed",shard="0"\} [1-9]`),
				regexp.MustCompile(`(?m)^rhmd_monitor_verdict_latency_seconds_count\{shard="0"\} [1-9]`),
			} {
				if !want.MatchString(body) {
					t.Errorf("/metrics lacks %s", want)
				}
			}
			if shards == "3" && !strings.Contains(body, `rhmd_monitor_verdict_latency_seconds_count{shard="2"}`) {
				t.Error("/metrics lacks shard 2's latency series")
			}
			if n := len(regexp.MustCompile(`(?m)^rhmd_trace_dropped_total `).FindAllString(body, -1)); n != 1 {
				t.Errorf("rhmd_trace_dropped_total served %d times, want once", n)
			}
			if n := strings.Count(body, "# TYPE rhmd_monitor_programs_total counter"); n != 1 {
				t.Errorf("%d TYPE headers for rhmd_monitor_programs_total, want 1", n)
			}
		})
	}
}

// scrapeDuringHold runs the command with an ephemeral observability
// endpoint and a hold window, and scrapes /metrics once the run has
// drained.
func scrapeDuringHold(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr syncBuffer
	full := append(append(append([]string(nil), tiny...), "-metrics-addr", "127.0.0.1:0", "-hold", "3s"), args...)
	exit := make(chan int, 1)
	go func() { exit <- run(full, &stdout, &stderr) }()
	addrRE := regexp.MustCompile(`observability endpoint on http://(\S+)`)
	deadline := time.Now().Add(60 * time.Second)
	for !strings.Contains(stderr.String(), "holding observability endpoint") {
		select {
		case code := <-exit:
			t.Fatalf("exited %d before holding:\n%s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the run never reached its hold window")
		}
		time.Sleep(10 * time.Millisecond)
	}
	m := addrRE.FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no endpoint address announced:\n%s", stdout.String())
	}
	resp, err := http.Get("http://" + m[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if code := <-exit; code != 0 {
		t.Fatalf("exited %d:\n%s", code, stderr.String())
	}
	return string(body)
}
