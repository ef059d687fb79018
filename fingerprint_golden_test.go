package syrep_test

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"syrep/internal/resilience"
	"syrep/internal/topozoo"
)

var updateFingerprints = flag.Bool("update-fingerprints", false,
	"rewrite testdata/fingerprints.golden from the current engine")

// goldenJobs are the Combined synthesis jobs whose routing fingerprints are
// pinned: for each embedded topology, the destinations at k=2 and k=3 that
// the pipeline solves in well under a second on a 2-CPU x86-64 VM (Aarnet,
// Geant and Renater have none, so they are left out). They mix
// jobs whose heuristic table is already resilient with jobs that go through
// BDD repair, so a change to the BDD engine that alters any synthesized
// table shows up as a fingerprint mismatch.
var goldenJobs = []struct {
	k     int
	topo  string
	dests string
}{
	{2, "Abilene", "NewYork Chicago Atlanta Indianapolis KansasCity Houston Denver Sunnyvale Seattle"},
	{2, "Arnes", "Ljubljana Maribor Kranj Koper NovoMesto"},
	{2, "Arpanet1970", "UCLA SRI UCSB BBN MIT CMU Harvard Lincoln"},
	{2, "BizNet", "Hub0 Hub1 Hub2 Hub3 a4"},
	{2, "Cesnet", "Praha Brno"},
	{2, "Garr", "Bologna Firenze Trieste"},
	{2, "Nsfnet", "Pittsburgh Princeton"},
	{2, "Sprint", "Chicago"},
	{2, "Uninett", "Oslo Bergen Stavanger Kristiansand"},
	{3, "Abilene", "NewYork WashingtonDC Atlanta Houston Denver Indianapolis Sunnyvale Seattle"},
	{3, "Arnes", "Ljubljana Maribor"},
	{3, "Arpanet1970", "UCLA SRI Harvard Lincoln"},
	{3, "Cesnet", "Praha Brno"},
	{3, "Garr", "Bologna"},
	{3, "Uninett", "Oslo Stavanger Kristiansand"},
}

const fingerprintGolden = "testdata/fingerprints.golden"

// TestCombinedFingerprintGolden synthesizes every golden job with the
// Combined strategy and no deadline (so no timing can change the result) and
// compares each routing's Fingerprint with the committed golden file.
// Regenerate with -update-fingerprints only when a change is meant to alter
// synthesized tables.
func TestCombinedFingerprintGolden(t *testing.T) {
	nets := map[string]*topozoo.Instance{}
	for _, in := range topozoo.Embedded() {
		nets[in.Name] = &in
	}
	var got []string
	for _, g := range goldenJobs {
		in, ok := nets[g.topo]
		if !ok {
			t.Fatalf("unknown embedded topology %q", g.topo)
		}
		for _, name := range strings.Fields(g.dests) {
			dest := in.Net.NodeByName(name)
			r, _, err := resilience.Synthesize(context.Background(), in.Net, dest, g.k,
				resilience.Options{Strategy: resilience.Combined})
			if err != nil {
				t.Fatalf("%s/%s k=%d: %v", g.topo, name, g.k, err)
			}
			got = append(got, fmt.Sprintf("%s %s k%d %s", g.topo, name, g.k, r.Fingerprint()))
		}
	}

	if *updateFingerprints {
		if err := os.MkdirAll(filepath.Dir(fingerprintGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (run 'go test -run TestCombinedFingerprintGolden -update-fingerprints .' to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d jobs, golden has %d lines", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fingerprint mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
