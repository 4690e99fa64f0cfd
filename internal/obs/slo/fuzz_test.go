package slo_test

import (
	"testing"
	"time"

	"rhmd/internal/obs"
	"rhmd/internal/obs/slo"
)

// FuzzParseObjectives guards the -slo-config decoder: whatever bytes
// the flag points at, ParseObjectives returns objectives or an error,
// never panics, and what it accepts is evaluable. Every accepted
// objective has exactly one indicator shape (bad+total reads or a gauge
// value), and when the engine accepts the set, ticks over an empty
// registry report one status per objective. The seed corpus lives in
// testdata/fuzz/FuzzParseObjectives, which plain `go test` replays.
func FuzzParseObjectives(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, err := slo.ParseObjectives(data)
		if err != nil {
			if objs != nil {
				t.Fatalf("error %v returned objectives too", err)
			}
			return
		}
		if len(objs) == 0 {
			t.Fatal("accepted a config with no objectives")
		}
		for _, o := range objs {
			ratio := o.Bad != nil && o.Total != nil
			if ratio == (o.Value != nil) {
				t.Fatalf("objective %q has no single indicator shape", o.Name)
			}
		}
		now := testBase
		eng, err := slo.New(slo.Config{
			Source:     obs.NewRegistry(),
			Now:        func() time.Time { return now },
			Objectives: objs,
		})
		if err != nil {
			return // e.g. a target outside (0,1) or a duplicate name
		}
		eng.Tick()
		now = now.Add(time.Minute)
		eng.Tick()
		if got := len(eng.Status().Objectives); got != len(objs) {
			t.Fatalf("status reports %d objectives, config has %d", got, len(objs))
		}
	})
}
