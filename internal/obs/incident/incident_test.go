package incident_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/obs"
	"rhmd/internal/obs/incident"
	"rhmd/internal/obs/slo"
)

var testBase = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func fixedClock(at time.Time) (func() time.Time, func(time.Duration)) {
	now := at
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func TestRetentionKeepsNewestTwo(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "incidents")
	reg := obs.NewRegistry()
	clock, advance := fixedClock(testBase)
	rec, err := incident.NewRecorder(incident.Config{
		Dir: dir, Now: clock, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var paths []string
	for _, kind := range []string{"manual-a", "manual-b", "manual-c"} {
		p, err := rec.Trigger(incident.Cause{Kind: kind})
		if err != nil {
			t.Fatalf("Trigger(%s): %v", kind, err)
		}
		paths = append(paths, p)
		advance(time.Second)
	}

	ids, err := rec.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("retained %d bundles, want 2 (Keep default)", len(ids))
	}
	// Lexical ID order is chronological; the oldest capture is gone.
	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Errorf("oldest bundle %s survived pruning", paths[0])
	}
	for _, p := range paths[1:] {
		if _, err := incident.Load(nil, p); err != nil {
			t.Errorf("retained bundle %s does not load: %v", p, err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counter("rhmd_incident_captures_total"); got != 3 {
		t.Errorf("captures_total = %d, want 3", got)
	}
	if fam, ok := snap["rhmd_incident_bundles"]; !ok || fam.Children[""].Gauge != 2 {
		t.Errorf("bundles gauge = %+v, want 2", fam)
	}
}

func TestCooldownSuppressesSameKind(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "incidents")
	reg := obs.NewRegistry()
	clock, advance := fixedClock(testBase)
	rec, err := incident.NewRecorder(incident.Config{
		Dir: dir, Now: clock, Registry: reg, MinInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := rec.Trigger(incident.Cause{Kind: "slo-page"}); err != nil {
		t.Fatal(err)
	}
	advance(30 * time.Second)
	if _, err := rec.Trigger(incident.Cause{Kind: "slo-page"}); !errors.Is(err, incident.ErrSuppressed) {
		t.Fatalf("second trigger inside cooldown = %v, want ErrSuppressed", err)
	}
	// A different kind is not throttled by the first kind's cooldown.
	if _, err := rec.Trigger(incident.Cause{Kind: "shard-death"}); err != nil {
		t.Fatalf("different kind inside cooldown: %v", err)
	}
	advance(31 * time.Second)
	if _, err := rec.Trigger(incident.Cause{Kind: "slo-page"}); err != nil {
		t.Fatalf("trigger after cooldown: %v", err)
	}

	if got := reg.Snapshot().Counter("rhmd_incident_suppressed_total"); got != 1 {
		t.Errorf("suppressed_total = %d, want 1", got)
	}
}

func TestRegistryDiffAndMarkHealthy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "incidents")
	reg := obs.NewRegistry()
	events := reg.Counter("rhmd_events_total", "events")
	clock, advance := fixedClock(testBase)
	rec, err := incident.NewRecorder(incident.Config{Dir: dir, Now: clock, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	events.Add(7)
	advance(time.Minute)
	p, err := rec.Trigger(incident.Cause{Kind: "manual", Detail: "diff check"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := incident.Load(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if b.LastHealthy != testBase {
		t.Errorf("LastHealthy = %v, want construction time %v", b.LastHealthy, testBase)
	}
	var found bool
	for _, fd := range b.RegistryDiff {
		if fd.Name == "rhmd_events_total" {
			found = true
			if len(fd.Series) != 1 || fd.Series[0].Counter != 7 {
				t.Errorf("events diff = %+v, want counter delta 7", fd.Series)
			}
		}
	}
	if !found {
		t.Fatalf("registry diff %v omits the moved counter", b.RegistryDiff)
	}

	// After MarkHealthy the moved counter is the new baseline: the next
	// bundle's diff must not re-report it.
	rec.MarkHealthy()
	healthyAt := clock()
	advance(time.Minute)
	p, err = rec.Trigger(incident.Cause{Kind: "manual-2"})
	if err != nil {
		t.Fatal(err)
	}
	if b, err = incident.Load(nil, p); err != nil {
		t.Fatal(err)
	}
	if b.LastHealthy != healthyAt {
		t.Errorf("LastHealthy = %v, want re-baselined %v", b.LastHealthy, healthyAt)
	}
	for _, fd := range b.RegistryDiff {
		if fd.Name == "rhmd_events_total" {
			t.Errorf("diff after MarkHealthy still reports stale movement: %+v", fd)
		}
	}
}

func TestTamperDetection(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "incidents")
	clock, _ := fixedClock(testBase)
	rec, err := incident.NewRecorder(incident.Config{Dir: dir, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	p, err := rec.Trigger(incident.Cause{Kind: "manual", Detail: "pristine"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := incident.Load(nil, p); err != nil {
		t.Fatalf("untampered bundle rejected: %v", err)
	}

	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte("pristine"), []byte("doctored"), 1)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := incident.Load(nil, p); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("tampered bundle load = %v, want fingerprint mismatch", err)
	}
}

// sealedBundle captures one bundle and returns its path and bytes.
func sealedBundle(t *testing.T) (string, []byte) {
	t.Helper()
	clock, _ := fixedClock(testBase)
	rec, err := incident.NewRecorder(incident.Config{Dir: filepath.Join(t.TempDir(), "incidents"), Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	p, err := rec.Trigger(incident.Cause{Kind: "manual", Detail: "pristine"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, data
}

func TestLoadRejectsTrailingData(t *testing.T) {
	p, data := sealedBundle(t)
	if err := os.WriteFile(p, append(data, "\n\t"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := incident.Load(nil, p); err != nil {
		t.Fatalf("bundle with trailing whitespace rejected: %v", err)
	}
	if err := os.WriteFile(p, append(data, `{"schema":"x"}`...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := incident.Load(nil, p); err == nil || !strings.Contains(err.Error(), "after the bundle") {
		t.Fatalf("bundle with appended bytes load = %v, want trailing-data error", err)
	}
}

func TestLoadRejectsUnknownField(t *testing.T) {
	p, data := sealedBundle(t)
	data = bytes.Replace(data, []byte(`"cause": {`), []byte(`"cause": {"note": "added later", `), 1)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := incident.Load(nil, p); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("bundle with an added field load = %v, want unknown-field error", err)
	}
}

// TestCrashSweep proves the capture path is crash-safe: for every
// possible crash point inside a capture (one filesystem-operation
// budget at a time), whatever incident files survive on disk must load
// and fingerprint-verify cleanly — a torn bundle never becomes visible.
func TestCrashSweep(t *testing.T) {
	clock, _ := fixedClock(testBase)

	// Probe run measures how many FS operations a full capture spends.
	probe := checkpoint.NewFailingFS(checkpoint.OSFS{}, 1<<30)
	rec, err := incident.NewRecorder(incident.Config{
		Dir: filepath.Join(t.TempDir(), "probe"), Now: clock, FS: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Trigger(incident.Cause{Kind: "probe"}); err != nil {
		t.Fatal(err)
	}
	spent := probe.Spent()
	if spent == 0 {
		t.Fatal("probe capture spent no FS operations; the harness is wired wrong")
	}

	for budget := 0; budget <= spent; budget++ {
		dir := filepath.Join(t.TempDir(), "incidents")
		fsys := checkpoint.NewFailingFS(checkpoint.OSFS{}, budget)
		rec, err := incident.NewRecorder(incident.Config{Dir: dir, Now: clock, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		_, trigErr := rec.Trigger(incident.Cause{Kind: "crash", Detail: "sweep"})

		entries, err := os.ReadDir(dir)
		if err != nil && !os.IsNotExist(err) {
			t.Fatalf("budget %d: read dir: %v", budget, err)
		}
		var bundles int
		for _, ent := range entries {
			name := ent.Name()
			if !strings.HasPrefix(name, "incident-") || !strings.HasSuffix(name, ".json") {
				continue // temp files from an aborted atomic write are fine
			}
			bundles++
			if _, err := incident.Load(nil, filepath.Join(dir, name)); err != nil {
				t.Errorf("budget %d: surviving bundle %s is torn: %v", budget, name, err)
			}
		}
		if trigErr == nil && bundles != 1 {
			t.Errorf("budget %d: capture reported success but %d bundles on disk", budget, bundles)
		}
	}
}

func TestSLOHook(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "incidents")
	clock, advance := fixedClock(testBase)
	rec, err := incident.NewRecorder(incident.Config{Dir: dir, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	hook := rec.SLOHook()

	// A transition into page captures a bundle with the slo-page cause.
	advance(time.Minute)
	hook(slo.Transition{Objective: "lat", From: slo.StateOK, To: slo.StatePage,
		FromState: "ok", ToState: "page", Reason: "fast burn"})
	ids, err := rec.List()
	if err != nil || len(ids) != 1 {
		t.Fatalf("after page hook: %d bundles (%v), want 1", len(ids), err)
	}
	b, err := incident.Load(nil, filepath.Join(dir, ids[0]+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Cause.Kind != "slo-page" || !strings.Contains(b.Cause.Detail, "lat") {
		t.Errorf("cause = %+v, want slo-page mentioning the objective", b.Cause)
	}

	// A transition back to OK re-baselines instead of capturing.
	advance(time.Minute)
	hook(slo.Transition{Objective: "lat", From: slo.StatePage, To: slo.StateOK,
		FromState: "page", ToState: "ok"})
	if ids, _ = rec.List(); len(ids) != 1 {
		t.Fatalf("OK transition captured a bundle: %d retained", len(ids))
	}
	healthyAt := clock()
	advance(time.Minute)
	p, err := rec.Trigger(incident.Cause{Kind: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	if b, err = incident.Load(nil, p); err != nil {
		t.Fatal(err)
	}
	if b.LastHealthy != healthyAt {
		t.Errorf("LastHealthy = %v, want %v (the OK transition's mark)", b.LastHealthy, healthyAt)
	}
}

func TestHandler(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "incidents")
	clock, _ := fixedClock(testBase)
	rec, err := incident.NewRecorder(incident.Config{Dir: dir, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	h := rec.Handler()

	// Empty directory lists as an empty array, not null or an error.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/incidents", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `"incidents": []`) {
		t.Fatalf("GET empty dir = %d %q", rr.Code, rr.Body.String())
	}

	if _, err := rec.Trigger(incident.Cause{Kind: "manual"}); err != nil {
		t.Fatal(err)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/incidents", nil))
	var doc struct {
		Dir       string   `json:"dir"`
		Keep      int      `json:"keep"`
		Incidents []string `json:"incidents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("listing is not JSON: %v", err)
	}
	if len(doc.Incidents) != 1 || doc.Keep != 2 {
		t.Fatalf("listing = %+v, want one incident, keep 2", doc)
	}

	// Download round-trips through the fingerprint check.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/incidents?id="+doc.Incidents[0], nil))
	if rr.Code != 200 {
		t.Fatalf("GET ?id= = %d, want 200", rr.Code)
	}
	var b incident.Bundle
	if err := json.Unmarshal(rr.Body.Bytes(), &b); err != nil {
		t.Fatalf("downloaded bundle is not JSON: %v", err)
	}
	if b.ID != doc.Incidents[0] || b.Schema != incident.SchemaVersion {
		t.Errorf("downloaded bundle id=%q schema=%q", b.ID, b.Schema)
	}

	// IDs are validated against the listing: traversal and unknown IDs
	// both 404.
	for _, id := range []string{"../../etc/passwd", "incident-nope"} {
		rr = httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/incidents", nil)
		q := req.URL.Query()
		q.Set("id", id)
		req.URL.RawQuery = q.Encode()
		h.ServeHTTP(rr, req)
		if rr.Code != 404 {
			t.Errorf("GET ?id=%q = %d, want 404", id, rr.Code)
		}
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/incidents", nil))
	if rr.Code != 405 {
		t.Fatalf("POST /incidents = %d, want 405", rr.Code)
	}
}
