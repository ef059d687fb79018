package resilience_test

import (
	"errors"
	"testing"

	"syrep/internal/cache"
	"syrep/internal/network"
	"syrep/internal/papernet"
	"syrep/internal/resilience"
	"syrep/internal/routing"
)

// unsolvableSeed is the unrepairable square of TestRepairUnsolvable plus a
// spoke f4 = y–d that y's loop-back entry relies on alone. Cached as
// resilient and adapted onto the plain square, that entry becomes a hole
// while the pinned entries at x and z each strand a packet behind one failed
// spoke: y must leave via f3 when f0 fails and via f2 when f1 fails, which
// no single priority list does.
func unsolvableSeed() (seed *cache.Entry, square *network.Network) {
	build := func(spoke bool) (*network.Network, []network.EdgeID) {
		b := network.NewBuilder("square")
		d, x, y, z := b.AddNode("d"), b.AddNode("x"), b.AddNode("y"), b.AddNode("z")
		es := []network.EdgeID{b.AddEdge(d, x), b.AddEdge(d, z), b.AddEdge(x, y), b.AddEdge(y, z)}
		if spoke {
			es = append(es, b.AddEdge(y, d))
		}
		return b.MustBuild(), es
	}
	n, f := build(true)
	square, _ = build(false)
	x, y, z := n.NodeByName("x"), n.NodeByName("y"), n.NodeByName("z")
	r := routing.New(n, n.NodeByName("d"))
	r.MustSet(n.Loopback(x), x, []network.EdgeID{f[0], f[2]})
	r.MustSet(f[2], x, []network.EdgeID{f[0]})
	r.MustSet(f[0], x, []network.EdgeID{f[2], f[0]})
	r.MustSet(n.Loopback(z), z, []network.EdgeID{f[1], f[3]})
	r.MustSet(f[3], z, []network.EdgeID{f[1]})
	r.MustSet(f[1], z, []network.EdgeID{f[3], f[1]})
	r.MustSet(n.Loopback(y), y, []network.EdgeID{f[4]})
	r.MustSet(f[2], y, []network.EdgeID{f[3], f[2]})
	r.MustSet(f[3], y, []network.EdgeID{f[2], f[3]})
	return &cache.Entry{Net: n, Routing: r, Resilient: true}, square
}

// TestWarmRepair drives the shared warm-repair path through its four
// outcomes. Each case seeds a fresh cache with one entry under a key no
// request produces, so a later hit on CacheKey can only be WarmRepair's own
// insert.
func TestWarmRepair(t *testing.T) {
	const k = 1
	fig := papernet.Figure1()
	figDest := papernet.Figure1Dest(fig)
	figBase, _, err := resilience.Synthesize(ctx, fig, figDest, k, resilience.Options{})
	if err != nil {
		t.Fatalf("base synthesis: %v", err)
	}
	figMod, err := network.WithoutEdges(fig, fig.RealEdges()[:1])
	if err != nil {
		t.Fatal(err)
	}

	// An entry filed under destination d whose table routes toward w, a
	// node the request topology lacks: Nearest matches it, Adapt rejects it.
	b := network.NewBuilder("with-w")
	for i := 0; i < fig.NumNodes(); i++ {
		b.AddNode(fig.NodeName(network.NodeID(i)))
	}
	for _, e := range fig.RealEdges() {
		u, v := fig.Endpoints(e)
		b.AddEdge(u, v)
	}
	w := b.AddNode("w")
	b.AddEdge(w, figDest)
	b.AddEdge(w, fig.NodeByName("v1"))
	withW := b.MustBuild()
	towardW, _, err := resilience.Synthesize(ctx, withW, w, k, resilience.Options{})
	if err != nil {
		t.Fatalf("synthesis toward w: %v", err)
	}

	sqSeed, square := unsolvableSeed()

	cases := []struct {
		name    string
		seed    *cache.Entry
		net     *network.Network
		maxDiff int
		want    bool
		wantErr error // the sentinel a miss must carry, if it has one
	}{
		{"seed hit", &cache.Entry{Net: fig, Routing: figBase, Resilient: true}, figMod, 1, true, nil},
		{"no seed within maxDiff", &cache.Entry{Net: fig, Routing: figBase, Resilient: true}, figMod, 0, false, resilience.ErrNoSeed},
		{"adapt failure", &cache.Entry{Net: withW, Routing: towardW, Resilient: true}, fig, fig.NumEdges(), false, nil},
		{"unsolvable seed", sqSeed, square, 1, false, resilience.ErrUnsolvable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dest := tc.net.NodeByName("d")
			// Pin each failing case to the path it names.
			switch tc.name {
			case "adapt failure":
				if _, err := cache.Adapt(tc.seed, tc.net, k); err == nil {
					t.Fatal("Adapt accepted a table toward a missing destination")
				}
			case "unsolvable seed":
				seed, err := cache.Adapt(tc.seed, tc.net, k)
				if err != nil || seed.NumHoles() == 0 {
					t.Fatalf("Adapt = %v, want a seed with holes", err)
				}
				if _, _, err := resilience.WarmStart(ctx, seed, k, resilience.Options{}); !errors.Is(err, resilience.ErrUnsolvable) {
					t.Fatalf("WarmStart err = %v, want ErrUnsolvable", err)
				}
			}
			c := cache.New(cache.Config{})
			c.Put(cache.Key{Topo: tc.seed.Net.Fingerprint(), Dest: "d", K: k, Strategy: "seed"}, tc.seed)

			r, _, err := resilience.WarmRepair(ctx, c, tc.net, dest, k, tc.maxDiff, resilience.Options{})
			ok := err == nil
			if ok != tc.want {
				t.Fatalf("err = %v, want a hit: %v", err, tc.want)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if ok && (r == nil || !r.Complete()) {
				t.Fatal("hit returned no complete routing")
			}
			st := c.Stats()
			wantHits, wantMisses := int64(0), int64(1)
			if tc.want {
				wantHits, wantMisses = 1, 0
			}
			if st.WarmHits != wantHits || st.WarmMisses != wantMisses {
				t.Errorf("warm hits/misses = %d/%d, want %d/%d", st.WarmHits, st.WarmMisses, wantHits, wantMisses)
			}
			if _, put := c.Get(resilience.CacheKey(tc.net, dest, k, 0)); put != tc.want {
				t.Errorf("result cached under CacheKey = %v, want %v", put, tc.want)
			}
			if got, want := c.Len(), 1; tc.want && got != want+1 || !tc.want && got != want {
				t.Errorf("cache holds %d entries after ok=%v", got, ok)
			}
		})
	}
}
