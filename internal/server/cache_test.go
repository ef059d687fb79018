package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"syrep/internal/cache"
	"syrep/internal/resilience"
	"syrep/internal/resilience/faultinject"
	"syrep/internal/retry"
)

// ringLinks is a 5-node cycle plus two chords: 2-connected, so any single
// link can fail without disconnecting it, and small enough that synthesis is
// instant.
var ringLinks = `[["a","b"],["b","c"],["c","d"],["d","e"],["e","a"],["a","c"],["b","d"]]`

// ringLinksWithout drops the one link between u and v.
func ringLinksWithout(t *testing.T, u, v string) string {
	t.Helper()
	var links [][2]string
	if err := json.Unmarshal([]byte(ringLinks), &links); err != nil {
		t.Fatal(err)
	}
	var out [][2]string
	for _, l := range links {
		if l[0] == u && l[1] == v || l[0] == v && l[1] == u {
			continue
		}
		out = append(out, l)
	}
	if len(out) != len(links)-1 {
		t.Fatalf("no %s-%s link in ringLinks", u, v)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func cachedServer(t *testing.T, cfg Config) (*Server, *cache.Cache) {
	t.Helper()
	c := cache.New(cache.Config{Obs: cfg.Obs})
	cfg.Cache = c
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	s := New(cfg)
	t.Cleanup(func() { shutdownServer(t, s) })
	return s, c
}

// TestCacheHit: the second identical synthesis is served from the cache
// without a pipeline run, and the verdict matches the first response.
func TestCacheHit(t *testing.T) {
	faultinject.LeakCheck(t)
	s, c := cachedServer(t, Config{Workers: 2})
	ctx := context.Background()
	req := func() *Request {
		r, err := buildRequest(KindSynthesize, &apiRequest{Links: mustLinks(t, ringLinks), Dest: "a"})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	first, err := s.Do(ctx, req())
	if err != nil || first.Err != nil {
		t.Fatalf("first request: %v / %v", err, first.Err)
	}
	if first.Cached || !first.Resilient {
		t.Fatalf("first response = %+v, want a cold resilient table", first)
	}
	second, err := s.Do(ctx, req())
	if err != nil || second.Err != nil {
		t.Fatalf("second request: %v / %v", err, second.Err)
	}
	if !second.Cached || !second.Resilient {
		t.Errorf("second response cached=%v resilient=%v, want a cache hit", second.Cached, second.Resilient)
	}
	if !second.Routing.Equal(first.Routing) {
		t.Error("cache served a different table than it stored")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit and 1 entry", st)
	}
}

// mustLinks parses a link-list literal.
func mustLinks(t *testing.T, s string) [][2]string {
	t.Helper()
	var links [][2]string
	if err := json.Unmarshal([]byte(s), &links); err != nil {
		t.Fatal(err)
	}
	return links
}

// TestCacheDedup: concurrent identical synthesize requests collapse into one
// pipeline run; the followers come back flagged Deduped with an equal table.
// The shared gateHook holds the leader mid-pipeline while the followers
// attach to its flight.
func TestCacheDedup(t *testing.T) {
	faultinject.LeakCheck(t)
	hook := newGateHook()
	s, c := cachedServer(t, Config{Workers: 4, Hook: hook})
	ctx := context.Background()

	build := func() *Request {
		r, err := buildRequest(KindSynthesize, &apiRequest{Links: mustLinks(t, ringLinks), Dest: "a"})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	responses := make([]*Response, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := s.Do(ctx, build())
		if err != nil {
			t.Error(err)
		}
		responses[0] = resp
	}()
	<-hook.entered
	for i := 1; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Do(ctx, build())
			if err != nil {
				t.Error(err)
			}
			responses[i] = resp
		}()
	}
	for c.Stats().Dedups < 2 {
		time.Sleep(time.Millisecond)
	}
	close(hook.release)
	wg.Wait()

	deduped := 0
	for i, resp := range responses {
		if resp == nil || resp.Err != nil {
			t.Fatalf("response %d failed: %+v", i, resp)
		}
		if !resp.Resilient {
			t.Errorf("response %d not resilient", i)
		}
		if resp.Deduped {
			deduped++
			if !resp.Routing.Equal(responses[0].Routing) {
				t.Errorf("deduped response %d differs from the leader's table", i)
			}
		}
	}
	if deduped != 2 {
		t.Errorf("%d responses deduped, want 2", deduped)
	}
	if st := c.Stats(); st.Dedups != 2 {
		t.Errorf("dedups = %d, want 2", st.Dedups)
	}
}

// TestWarmStartHTTP is the end-to-end walkthrough: synthesize a base over
// HTTP, then submit a repair for the same topology minus a link WITHOUT a
// routing table; the warm-start fast path must answer with a resilient
// table, and /v1/cache must account the warm hit.
func TestWarmStartHTTP(t *testing.T) {
	faultinject.LeakCheck(t)
	c := cache.New(cache.Config{})
	_, ts := httpServer(t, Config{Workers: 2, Cache: c})

	body := fmt.Sprintf(`{"links":%s,"dest":"a","k":1}`, ringLinks)
	resp, api := postJSON(t, ts.URL+"/v1/synthesize", body)
	if resp.StatusCode != http.StatusOK || !api.Resilient {
		t.Fatalf("base synthesis: %d %+v", resp.StatusCode, api)
	}

	body = fmt.Sprintf(`{"links":%s,"dest":"a","k":1}`, ringLinksWithout(t, "b", "c"))
	resp, api = postJSON(t, ts.URL+"/v1/repair", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dynamic repair: %d %s", resp.StatusCode, api.Error)
	}
	if !api.WarmStart || !api.Resilient || api.Routing == nil {
		t.Fatalf("dynamic repair = %+v, want a warm-start resilient table", api)
	}

	r, err := http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats cache.Stats
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.WarmHits != 1 {
		t.Errorf("warm hits = %d, want 1", stats.WarmHits)
	}
	if stats.Entries != 2 { // the base and the warm-start result
		t.Errorf("entries = %d, want 2", stats.Entries)
	}

	// Novel topology, nothing cached near it: cold fallback, flagged as a
	// warm miss, still served.
	body = `{"links":[["x","y"],["y","z"],["z","x"]],"dest":"x","k":1}`
	resp, api = postJSON(t, ts.URL+"/v1/repair", body)
	if resp.StatusCode != http.StatusOK || api.WarmStart {
		t.Fatalf("cold fallback: %d %+v", resp.StatusCode, api)
	}
	if !api.Resilient {
		t.Error("cold fallback should still produce a resilient table")
	}
}

// TestWarmMissHalfOpen: after a memory-pressure trip has purged the cache
// and the cooldown has passed, dynamic repairs find no seed. Each warm miss
// must hand back the half-open probe slot it reserved, so the cold fallback
// runs as the probe: every request is served resilient and not degraded,
// and the breaker closes once Probes of them have succeeded.
func TestWarmMissHalfOpen(t *testing.T) {
	for _, probes := range []int{1, 2} {
		t.Run(fmt.Sprintf("probes=%d", probes), func(t *testing.T) {
			faultinject.LeakCheck(t)
			c := cache.New(cache.Config{})
			s, ts := httpServer(t, Config{
				Workers: 1,
				Cache:   c,
				Breaker: retry.BreakerConfig{Threshold: 3, Cooldown: time.Minute, Probes: probes},
			})
			s.Breaker().Trip(time.Now().Add(-time.Hour))

			// One request per probe, each toward a destination nothing
			// cached serves, so every one is a warm miss.
			for _, dest := range []string{"a", "b"}[:probes] {
				body := fmt.Sprintf(`{"links":%s,"dest":%q,"k":1}`, ringLinksWithout(t, "b", "c"), dest)
				resp, api := postJSON(t, ts.URL+"/v1/repair", body)
				if resp.StatusCode != http.StatusOK || api.Degraded || !api.Resilient || api.WarmStart {
					t.Fatalf("dynamic repair toward %s: %d status=%s resilient=%v warm=%v err=%q, want a cold resilient table",
						dest, resp.StatusCode, api.Status, api.Resilient, api.WarmStart, api.Error)
				}
			}
			if got := s.Breaker().State(); got != retry.BreakerClosed {
				t.Errorf("breaker state = %s after %d successful probes, want closed", got, probes)
			}
			if got := c.Stats().WarmMisses; got != int64(probes) {
				t.Errorf("warm misses = %d, want %d", got, probes)
			}
			r, err := http.Get(ts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Errorf("GET /readyz = %d after the breaker closed, want 200", r.StatusCode)
			}
		})
	}
}

// TestCacheEndpointWithoutCache: /v1/cache 404s when no cache is configured.
func TestCacheEndpointWithoutCache(t *testing.T) {
	faultinject.LeakCheck(t)
	_, ts := httpServer(t, Config{Workers: 1})
	r, err := http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/cache = %d without a cache, want 404", r.StatusCode)
	}
}

// TestMemoryPressurePurgesCache: a tripped memory-pressure probe flushes the
// synthesis cache along with tripping the breaker.
func TestMemoryPressurePurgesCache(t *testing.T) {
	faultinject.LeakCheck(t)
	s, c := cachedServer(t, Config{Workers: 1, MemoryPressure: func() bool { return true }})
	ctx := context.Background()

	req, err := buildRequest(KindSynthesize, &apiRequest{Links: mustLinks(t, ringLinks), Dest: "a"})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-seed an entry so the purge is observable.
	key := resilience.CacheKey(req.Net, req.Dest, req.K, req.Strategy)
	e, _ := buildRequest(KindSynthesize, &apiRequest{Links: mustLinks(t, ringLinks), Dest: "a"})
	warm, rep, serr := resilience.Synthesize(ctx, e.Net, e.Dest, e.K, resilience.Options{Timeout: 10 * time.Second})
	if serr != nil || rep == nil {
		t.Fatalf("seeding synthesis: %v", serr)
	}
	c.Put(key, &cache.Entry{Net: e.Net, Routing: warm, Resilient: true})

	// A different request (other dest) misses the cache and reaches the
	// pressure check, which must purge.
	req2, err := buildRequest(KindSynthesize, &apiRequest{Links: mustLinks(t, ringLinks), Dest: "b"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Do(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Errorf("response under memory pressure = %+v, want degraded", resp)
	}
	if got := c.Len(); got != 0 {
		t.Errorf("cache holds %d entries after a memory-pressure trip, want 0", got)
	}
}
