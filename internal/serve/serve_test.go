package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer builds a Server with tight limits so scenarios stay in
// the millisecond range.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// post sends one spec body to a handler and returns the recorder.
func post(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// smallSpec is the fast CPU scenario the cache tests reuse.
const smallSpec = `{"nodes":8,"cluster":"uniform","iters":4,"minreps":2,"maxreps":3}`

func TestGoldenResponse(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	h := s.Handler()

	w1 := post(t, h, smallSpec)
	if w1.Code != http.StatusOK {
		t.Fatalf("first POST: status %d, body %s", w1.Code, w1.Body.String())
	}
	if got := w1.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first POST X-Cache = %q, want miss", got)
	}
	w2 := post(t, h, smallSpec)
	if w2.Code != http.StatusOK {
		t.Fatalf("second POST: status %d", w2.Code)
	}
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second POST X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("cached body differs from computed body:\n%s\nvs\n%s",
			w1.Body.String(), w2.Body.String())
	}

	var res Result
	if err := json.Unmarshal(w1.Body.Bytes(), &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.Scenario != "cpu" || res.Primary != "avg_cpu_us" {
		t.Fatalf("scenario/primary = %q/%q", res.Scenario, res.Primary)
	}
	if res.Reps < 2 || res.Reps > 3 {
		t.Fatalf("reps = %d, want in [2, 3]", res.Reps)
	}
	if res.Stopped == "" || len(res.Samples) != res.Reps {
		t.Fatalf("stopped %q, %d samples for %d reps", res.Stopped, len(res.Samples), res.Reps)
	}
	if res.Key != w1.Header().Get("X-Scenario-Key") {
		t.Fatalf("body key %q != header key %q", res.Key, w1.Header().Get("X-Scenario-Key"))
	}
	// The echoed spec is fully explicit: defaults filled in.
	if res.Spec.Mode != "ab" || res.Spec.Topo != "crossbar" || res.Spec.Engine != "packet" {
		t.Fatalf("spec defaults not applied: %+v", res.Spec)
	}
	prim, ok := res.Metrics["avg_cpu_us"]
	if !ok {
		t.Fatalf("metrics missing primary: %v", res.Metrics)
	}
	if prim.N != res.Reps || prim.Mean <= 0 || prim.CI95 < 0 {
		t.Fatalf("primary summary malformed: %+v", prim)
	}
	for _, name := range []string{"elapsed_us", "signals", "node_cpu_p99_us"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metrics missing %q", name)
		}
	}

	// Metrics endpoint reflects the traffic: two requests, one run, one
	// cache hit, one miss.
	mw := httptest.NewRecorder()
	h.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m Metrics
	if err := json.Unmarshal(mw.Body.Bytes(), &m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if m.Requests != 2 || m.Runs != 1 || m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("metrics = requests %d runs %d hits %d misses %d, want 2/1/1/1",
			m.Requests, m.Runs, m.Cache.Hits, m.Cache.Misses)
	}
	if m.Pool.Misses == 0 {
		t.Fatalf("pool saw no builds: %+v", m.Pool)
	}
}

func TestSpellingVariantsCollapse(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	h := s.Handler()

	// Same scenario, different spellings: oversubscription 1 is the
	// full-bisection default, 1000us is 1ms, lps 1 is monolithic.
	a := `{"nodes":16,"cluster":"uniform","topo":"fattree:4:o1","skew":"1000us","lps":1,"iters":4,"minreps":2,"maxreps":2}`
	b := `{"nodes":16,"cluster":"uniform","topo":"fattree:4","skew":"1ms","iters":4,"minreps":2,"maxreps":2}`

	w1 := post(t, h, a)
	if w1.Code != http.StatusOK {
		t.Fatalf("variant a: status %d, body %s", w1.Code, w1.Body.String())
	}
	w2 := post(t, h, b)
	if w2.Code != http.StatusOK {
		t.Fatalf("variant b: status %d, body %s", w2.Code, w2.Body.String())
	}
	k1, k2 := w1.Header().Get("X-Scenario-Key"), w2.Header().Get("X-Scenario-Key")
	if k1 != k2 {
		t.Fatalf("spelling variants hashed differently: %s vs %s", k1, k2)
	}
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("variant b X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("variant bodies differ")
	}
	var res Result
	if err := json.Unmarshal(w1.Body.Bytes(), &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if res.Spec.Topo != "fattree:4" || res.Spec.LPs != 0 || time.Duration(res.Spec.Skew) != time.Millisecond {
		t.Fatalf("normalization leaked variant spellings: %+v", res.Spec)
	}
	if _, ok := res.Metrics["link_waits"]; !ok {
		t.Errorf("routed topology result missing link_waits: %v", res.Metrics)
	}
}

func TestSingleFlight(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	s.testDelay = 200 * time.Millisecond
	h := s.Handler()

	const clients = 4
	bodies := make([][]byte, clients)
	caches := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, h, smallSpec)
			if w.Code != http.StatusOK {
				t.Errorf("client %d: status %d", i, w.Code)
				return
			}
			bodies[i] = w.Body.Bytes()
			caches[i] = w.Header().Get("X-Cache")
		}(i)
	}
	wg.Wait()

	var misses, dedups int
	for i, c := range caches {
		switch c {
		case "miss":
			misses++
		case "dedup", "hit":
			// "hit" is possible if a client arrived after the owner
			// finished; it still did not trigger a second simulation.
			dedups++
		default:
			t.Fatalf("client %d: unexpected X-Cache %q", i, c)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs", i)
		}
	}
	if misses != 1 {
		t.Fatalf("%d owners computed, want exactly 1 (caches %v)", misses, caches)
	}
	if got := s.runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1: identical concurrent specs must collapse", got)
	}
	if got := s.dedups.Load(); got > clients-1 {
		t.Fatalf("dedups = %d, want at most %d", got, clients-1)
	}
}

func TestMalformedSpec(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	h := s.Handler()

	cases := []struct {
		name, body, wantErr string
	}{
		{"bad json", `{"nodes":`, "bad spec"},
		{"unknown field", `{"nodes":8,"nodez":9}`, "unknown field"},
		{"too small", `{"nodes":1}`, "nodes must be at least 2"},
		{"bad mode", `{"nodes":8,"mode":"rdma"}`, "unknown mode"},
		{"bad topo", `{"nodes":8,"topo":"torus:3"}`, "topo"},
		{"bad skew", `{"nodes":8,"skew":"yesterday"}`, "bad spec"},
		{"flow nic", `{"nodes":8,"engine":"flow","mode":"nic"}`, "flow engine does not model"},
		{"tenancy on crossbar", `{"nodes":8,"jobs":2}`, "routed topo"},
		{"reps over limit", `{"nodes":8,"maxreps":999}`, "exceeds the server limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, h, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", w.Body.String(), tc.wantErr)
			}
		})
	}

	// Wrong method is 405, and bad specs never reach the simulator.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/run", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: status %d, want 405", w.Code)
	}
	if got := s.runs.Load(); got != 0 {
		t.Fatalf("bad specs triggered %d runs", got)
	}
	if got := s.badSpecs.Load(); got != uint64(len(cases)) {
		t.Fatalf("badSpecs = %d, want %d", got, len(cases))
	}
}

func TestTenancyScenario(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	body := `{"nodes":16,"cluster":"uniform","topo":"fattree:4","jobs":2,"iters":3,"minreps":2,"maxreps":2}`
	w := post(t, s.Handler(), body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var res Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if res.Scenario != "tenancy" || res.Primary != "jct_p50_us" {
		t.Fatalf("scenario/primary = %q/%q", res.Scenario, res.Primary)
	}
	if res.Spec.Place != "random" || time.Duration(res.Spec.Arrival) != 50*time.Microsecond {
		t.Fatalf("tenancy defaults not applied: %+v", res.Spec)
	}
	for _, name := range []string{"jct_p50_us", "jct_p95_us", "makespan_us"} {
		if sum, ok := res.Metrics[name]; !ok || sum.Mean <= 0 {
			t.Fatalf("metric %q missing or non-positive: %+v", name, res.Metrics)
		}
	}
}

func TestFlowScenario(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	body := `{"nodes":64,"cluster":"uniform","topo":"fattree:8","engine":"flow","iters":3,"minreps":2,"maxreps":2}`
	w := post(t, s.Handler(), body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var res Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sum, ok := res.Metrics["fct_p99_us"]; !ok || sum.Mean <= 0 {
		t.Fatalf("flow result missing fct_p99_us: %v", res.Metrics)
	}
}

// TestDiskCache: a fresh server over a populated cache directory
// answers an intact entry from disk, byte-identically and without
// re-simulating; an entry that was truncated, or copied under another
// key, is detected, removed and recomputed instead of being served.
func TestDiskCache(t *testing.T) {
	const otherSpec = `{"nodes":8,"cluster":"uniform","iters":4,"minreps":2,"maxreps":3,"seed":7}`
	for _, tc := range []struct {
		name string
		// damage edits the stored entry of smallSpec (file) given the
		// intact entry of otherSpec; nil leaves the store as written.
		damage func(t *testing.T, file, other string)
	}{
		{"intact", nil},
		{"truncated", func(t *testing.T, file, _ string) {
			st, err := os.Stat(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(file, st.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong-key", func(t *testing.T, file, other string) {
			b, err := os.ReadFile(other)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
			w1 := post(t, s1.Handler(), smallSpec)
			wo := post(t, s1.Handler(), otherSpec)
			if w1.Code != http.StatusOK || wo.Code != http.StatusOK {
				t.Fatalf("status %d, %d", w1.Code, wo.Code)
			}
			file := filepath.Join(dir, w1.Header().Get("X-Scenario-Key")+".json")
			wantCache, wantRuns, want := "hit", uint64(0), CacheStats{DiskHits: 1, Entries: 1}
			if tc.damage != nil {
				tc.damage(t, file, filepath.Join(dir, wo.Header().Get("X-Scenario-Key")+".json"))
				wantCache, wantRuns, want = "miss", 1, CacheStats{Misses: 1, Entries: 1, Puts: 1}
			}

			s2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
			w2 := post(t, s2.Handler(), smallSpec)
			if w2.Code != http.StatusOK {
				t.Fatalf("status %d", w2.Code)
			}
			if got := w2.Header().Get("X-Cache"); got != wantCache {
				t.Errorf("X-Cache = %q, want %q", got, wantCache)
			}
			if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
				t.Errorf("body after restart differs from the computed one")
			}
			if got := s2.runs.Load(); got != wantRuns {
				t.Errorf("second server ran %d scenarios, want %d", got, wantRuns)
			}
			if st := s2.cache.Stats(); st != want {
				t.Errorf("cache stats %+v, want %+v", st, want)
			}

			// Whatever the first lookup found, the store now holds an
			// intact entry again: a third server answers from disk.
			s3 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
			if got := post(t, s3.Handler(), smallSpec).Header().Get("X-Cache"); got != "hit" {
				t.Errorf("after repair X-Cache = %q, want hit", got)
			}
		})
	}
}

func TestGracefulShutdown(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	s.testDelay = 300 * time.Millisecond
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Start a slow request, then shut the HTTP server down while it is
	// in flight: Shutdown must drain it to a complete 200 response.
	type outcome struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/run", "application/json", strings.NewReader(smallSpec))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- outcome{status: resp.StatusCode, body: b}
	}()

	// Give the request time to enter the handler, then close the
	// listener-side server gracefully. httptest's Close blocks until
	// outstanding requests finish — exactly the drain we assert on.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	hs.Close()
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Logf("close returned after %v (request likely already done)", waited)
	}
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("in-flight request failed across shutdown: %v", o.err)
		}
		if o.status != http.StatusOK {
			t.Fatalf("in-flight request: status %d, body %s", o.status, o.body)
		}
		var res Result
		if err := json.Unmarshal(o.body, &res); err != nil {
			t.Fatalf("drained response is not a full result: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || strings.TrimSpace(w.Body.String()) != "ok" {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}
}

// TestKeyStability pins the normalization-then-hash pipeline: a few
// distinct scenarios must produce distinct keys, and normalizing twice
// must be a fixed point.
func TestKeyStability(t *testing.T) {
	lim := Limits{}
	specs := []Spec{
		{Nodes: 8},
		{Nodes: 16},
		{Nodes: 8, Mode: "nab"},
		{Nodes: 8, Loss: 0.001},
		{Nodes: 16, Topo: "fattree:4", Jobs: 2},
	}
	seen := make(map[string]int)
	for i, sp := range specs {
		n1, err := sp.Normalize(lim)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		n2, err := n1.Normalize(lim)
		if err != nil {
			t.Fatalf("spec %d renormalize: %v", i, err)
		}
		if n1 != n2 {
			t.Fatalf("spec %d: normalize is not a fixed point:\n%+v\n%+v", i, n1, n2)
		}
		k := n1.Key()
		if j, dup := seen[k]; dup {
			t.Fatalf("specs %d and %d collide on %s", i, j, k)
		}
		seen[k] = i
	}
}

// TestWorkerBound asserts the semaphore really bounds concurrent
// simulations: with one worker and several distinct specs in flight,
// the observed in-flight maximum inside compute never exceeds one
// queued-past-the-semaphore count is visible via inflight.
func TestWorkerBound(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	s.testDelay = 50 * time.Millisecond
	h := s.Handler()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"nodes":8,"cluster":"uniform","iters":2,"seed":%d,"minreps":2,"maxreps":2}`, 100+i)
			if w := post(t, h, body); w.Code != http.StatusOK {
				t.Errorf("spec %d: status %d", i, w.Code)
			}
		}(i)
	}
	wg.Wait()
	if got := s.runs.Load(); got != 3 {
		t.Fatalf("runs = %d, want 3 distinct scenarios", got)
	}
	if got := s.inflight.Load(); got != 0 {
		t.Fatalf("in-flight = %d after drain, want 0", got)
	}
}
