package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"syrep/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the export golden files")

// goldenObserver builds a fully deterministic observer: fixed counter
// values, a fixed gauge, and spans with hand-picked timestamps.
func goldenObserver() *obs.Observer {
	o := obs.New(nil)
	o.BDD().MkCalls.Add(1234)
	o.BDD().NodesAllocated.Add(567)
	o.BDD().CacheHits.Add(890)
	o.BDD().CacheMisses.Add(345)
	o.BDD().GCRuns.Add(3)
	o.BDD().NodesFreed.Add(120)
	o.BDD().Reorders.Add(1)
	o.BDD().GCNanos.Add(2500000)
	o.BDD().ReorderNanos.Add(9000000)
	o.BDD().PeakNodes.SetMax(4096)
	o.BDD().CacheOccupancy.Set(375)
	o.Verify().Scenarios.Add(29)
	o.Verify().Traces.Add(174)
	o.Verify().Failing.Add(3)
	o.Verify().Collected.Add(3)
	o.Verify().BackendBrute.Add(2)
	o.Verify().BackendPoly.Add(5)
	o.Verify().PolyFallback.Add(1)
	o.Verify().PolyVisits.Add(611)
	o.Repair().Iterations.Add(2)
	o.Repair().HolesPunched.Add(7)
	o.Repair().CheckRounds.Add(5)
	o.Repair().ScenariosEncoded.Add(41)
	o.Counter(obs.CtlDupSkips).Add(4)
	o.Counter(obs.JournalAppends).Add(321)
	o.Counter(obs.JournalSyncs).Add(107)
	o.Counter(obs.JournalRotations).Add(2)
	o.Counter(obs.JournalSnapshots).Add(6)
	o.Counter(obs.JournalCompactedFiles).Add(9)
	o.Counter(obs.JournalRecoveredRecords).Add(58)
	o.Counter(obs.JournalTornTails).Add(1)
	o.Counter(obs.JournalSnapshotsLoaded).Add(1)
	o.Counter(obs.JournalBadSnapshots).Add(1)
	h := o.Histogram("syrep_ctl_event_latency_seconds", 0.001, 0.01, 0.1, 1)
	h.Observe(500 * time.Microsecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(42 * time.Millisecond)
	h.Observe(3 * time.Second)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	o.RecordSpan(obs.Span{Name: "verify", Start: base, End: base.Add(1500 * time.Microsecond)})
	o.RecordSpan(obs.Span{Name: "repair", Start: base, End: base.Add(20 * time.Millisecond)})
	o.RecordSpan(obs.Span{Name: "repair", Start: base, End: base.Add(5 * time.Millisecond)})
	o.RecordSpan(obs.Span{Name: obs.SpanTotal, Start: base, End: base.Add(30 * time.Millisecond)})
	return o
}

// TestExportGolden locks the export schema — metric names, label shapes, and
// formatting — for both renderers. A diff here means the schema changed and
// every consumer (CI artifact scrapers, dashboards) must be told.
func TestExportGolden(t *testing.T) {
	snap := goldenObserver().Snapshot()
	for _, tc := range []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"export.json", func(b *bytes.Buffer) error { return snap.WriteJSON(b) }},
		{"export.prom", func(b *bytes.Buffer) error { return snap.WritePrometheus(b) }},
	} {
		t.Run(tc.file, func(t *testing.T) {
			var got bytes.Buffer
			if err := tc.write(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run 'go test ./internal/obs -run Golden -update' to regenerate)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s drifted from golden file.\n-- got --\n%s\n-- want --\n%s",
					tc.file, got.Bytes(), want)
			}
		})
	}
}

// TestExportDeterminism: two renders of the same snapshot are byte-identical
// (map iteration order must not leak into the output).
func TestExportDeterminism(t *testing.T) {
	snap := goldenObserver().Snapshot()
	var a, b bytes.Buffer
	if err := snap.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Prometheus export is not deterministic")
	}
}

func TestWriteMetricsFormatSwitch(t *testing.T) {
	snap := goldenObserver().Snapshot()
	var j, p bytes.Buffer
	if err := snap.WriteMetrics(&j, "metrics.json"); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteMetrics(&p, "metrics.prom"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(j.String(), "{") {
		t.Errorf(".json path did not produce JSON: %q", j.String()[:20])
	}
	if !strings.HasPrefix(p.String(), "# TYPE ") {
		t.Errorf("non-json path did not produce Prometheus text: %q", p.String()[:20])
	}
	var round obs.Snapshot
	if err := json.Unmarshal(j.Bytes(), &round); err != nil {
		t.Fatalf("JSON export does not round-trip: %v", err)
	}
	if round.Counters[obs.BDDMkCalls] != 1234 {
		t.Errorf("round-tripped mk calls = %d, want 1234", round.Counters[obs.BDDMkCalls])
	}
}

func TestRecorderWriteJSON(t *testing.T) {
	rec := &obs.Recorder{}
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	rec.Span(obs.Span{Name: "reduce", Start: base, End: base.Add(time.Millisecond)})
	rec.Span(obs.Span{Name: "verify", Start: base, End: base.Add(2 * time.Millisecond)})
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name       string `json:"name"`
		DurationNS int64  `json:"duration_ns"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "reduce" || rows[1].Name != "verify" {
		t.Fatalf("rows = %+v, want reduce then verify", rows)
	}
	if rows[0].DurationNS != int64(time.Millisecond) {
		t.Errorf("duration = %d, want %d", rows[0].DurationNS, int64(time.Millisecond))
	}
}
