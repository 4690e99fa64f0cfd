package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"rhmd/internal/obs"
	"rhmd/internal/obs/incident"
	"rhmd/internal/obs/slo"
	"rhmd/internal/obs/span"
)

// sloParams is the SLO/incident wiring input: which flags were set and
// which telemetry sources exist.
type sloParams struct {
	enabled     bool          // -slo
	configPath  string        // -slo-config (implies enabled)
	burnFast    float64       // -burn-fast
	burnSlow    float64       // -burn-slow
	incidentDir string        // -incident-dir
	latency     time.Duration // -slow-ms, the verdict-latency threshold of the default objectives

	reg    *obs.Registry
	tracer *obs.Tracer
	spans  *span.Recorder
	stderr io.Writer // alert transitions are logged here
	// drift/fleet supply the respective status documents at incident
	// capture time; either may be nil (or return nil before the source
	// exists — the closures are built before the guard/fleet are).
	drift func() any
	fleet func() any
}

// sloWiring is the built result: the running SLO engine and incident
// recorder (either may be nil when its flags are off), their HTTP
// mounts, and a shutdown hook for the engine's ticker goroutine.
type sloWiring struct {
	eng    *slo.Engine
	rec    *incident.Recorder
	mounts []obs.Mount
	stop   func()
}

// shutdown stops the SLO ticker loop (no-op when the engine is off).
func (w *sloWiring) shutdown() {
	if w.stop != nil {
		w.stop()
	}
}

// buildSLO assembles the SLO engine and incident recorder from flags.
// The recorder works without the engine (shard-death and rollback
// hooks still capture bundles); the engine works without the recorder
// (alerts surface on /slo, metrics and the event ring only).
func buildSLO(p sloParams) (*sloWiring, error) {
	w := &sloWiring{}
	wantSLO := p.enabled || p.configPath != ""
	if !wantSLO && p.incidentDir == "" {
		return w, nil
	}

	if p.incidentDir != "" {
		rec, err := incident.NewRecorder(incident.Config{
			Dir:      p.incidentDir,
			Now:      time.Now,
			Registry: p.reg,
			Spans:    p.spans,
			Tracer:   p.tracer,
			SLOStatus: func() slo.Status {
				if w.eng != nil {
					return w.eng.Status()
				}
				return slo.Status{}
			},
			Drift: p.drift,
			Fleet: p.fleet,
		})
		if err != nil {
			return nil, err
		}
		w.rec = rec
		w.mounts = append(w.mounts, obs.Mount{Path: "/incidents", Handler: rec.Handler()})
	}

	if wantSLO {
		objs := slo.DefaultObjectives(p.latency)
		if p.configPath != "" {
			data, err := os.ReadFile(p.configPath)
			if err != nil {
				return nil, fmt.Errorf("-slo-config: %w", err)
			}
			if objs, err = slo.ParseObjectives(data); err != nil {
				return nil, err
			}
		}
		var hook func(slo.Transition)
		if w.rec != nil {
			hook = w.rec.SLOHook()
		}
		eng, err := slo.New(slo.Config{
			Source:     p.reg,
			Now:        time.Now,
			FastBurn:   p.burnFast,
			SlowBurn:   p.burnSlow,
			Objectives: objs,
			Tracer:     p.tracer,
			Spans:      p.spans,
			OnTransition: func(tr slo.Transition) {
				fmt.Fprintf(p.stderr, "slo: %s: %s → %s: %s\n",
					tr.Objective, tr.FromState, tr.ToState, tr.Reason)
				if hook != nil {
					hook(tr)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		w.eng = eng
		w.mounts = append(w.mounts, obs.Mount{Path: "/slo", Handler: eng.Handler()})
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			eng.Run(stop)
		}()
		w.stop = func() {
			close(stop)
			<-done
		}
	}
	return w, nil
}
