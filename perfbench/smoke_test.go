package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs a tiny version of every workload, untraced and traced, and
// checks that it passes its correctness checks and prints every metric
// BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %+v", spec)
	}
	state := t.TempDir()
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			w, err := newWorkload(wl.Name, 1, sizeSmoke)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res, err := run(ctx, w, config{seed: 1, traced: traced, stateDir: state, log: io.Discard})
			cancel()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: %v", wl.Name, traced, err)
			}
		}
	}
}

// TestGoldenMismatchFails checks that a fingerprint differing from the one
// an earlier run of the same seed stored fails the check.
func TestGoldenMismatchFails(t *testing.T) {
	dir := t.TempDir()
	w := newSynth(7, sizeSmoke)
	if _, err := run(context.Background(), w, config{seed: 7, stateDir: dir, log: io.Discard}); err != nil {
		t.Fatal(err)
	}
	w.solved.fps[w.solved.ids()[0]] = "tampered"
	if _, err := w.solved.golden(dir, "synth", 7); err == nil {
		t.Fatal("a changed fingerprint passed the golden check")
	}
}
