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
	"sync/atomic"
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
	// The lone run found the second worker slot idle and borrowed it
	// for its second repetition.
	if m.Reps != uint64(res.Reps) || m.RepsBorrowed != 1 {
		t.Fatalf("metrics reps %d, borrowed %d; want %d, 1", m.Reps, m.RepsBorrowed, res.Reps)
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
	s.testRep = func(int) { time.Sleep(200 * time.Millisecond) }
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
		{"tenancy lps", `{"nodes":16,"topo":"fattree:4","jobs":3,"lps":2}`, "no lps or topoaware"},
		{"tenancy topoaware", `{"nodes":16,"topo":"fattree:4","jobs":3,"topoaware":true}`, "no lps or topoaware"},
		{"tenancy lps topoaware", `{"nodes":16,"topo":"fattree:4","jobs":3,"lps":4,"topoaware":true}`, "no lps or topoaware"},
		{"reps over limit", `{"nodes":8,"maxreps":999}`, "exceeds the server limit"},
		{"count over limit", `{"nodes":2,"mode":"nab","count":65537}`, "count must be in [1, 65536]"},
		{"count far over limit", `{"nodes":2,"mode":"nab","count":2000000000}`, "count must be in [1, 65536]"},
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

	// Wrong method is 405, and bad specs never reach the simulator or
	// build a cluster.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/run", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: status %d, want 405", w.Code)
	}
	if got := s.runs.Load(); got != 0 {
		t.Fatalf("bad specs triggered %d runs", got)
	}
	if got := s.pool.Stats().Misses; got != 0 {
		t.Fatalf("bad specs built %d clusters", got)
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
	s.testRep = func(int) { time.Sleep(300 * time.Millisecond) }
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

// keySpecs are distinct scenarios: distinct keys, each a fixed point of
// Normalize.
var keySpecs = []Spec{
	{Nodes: 8},
	{Nodes: 16},
	{Nodes: 8, Mode: "nab"},
	{Nodes: 8, Loss: 0.001},
	{Nodes: 16, Topo: "fattree:4", Jobs: 2},
}

// TestKeyStability pins the normalization-then-hash pipeline: a few
// distinct scenarios must produce distinct keys, and normalizing twice
// must be a fixed point.
func TestKeyStability(t *testing.T) {
	lim := Limits{}
	seen := make(map[string]int)
	for i, sp := range keySpecs {
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

// TestBodiesIndependentOfWorkers: a body is a pure function of its
// spec, whichever slots ran its repetitions. The serve_mix benchmark's
// five cold shapes at its three pinned repetitions, a tenancy spec and
// a spec that converges past MinReps, posted concurrently to servers
// with one worker and with four, come back byte-identical.
func TestBodiesIndependentOfWorkers(t *testing.T) {
	specs := []string{
		`{"nodes":64,"mode":"ab","seed":11,"minreps":3,"maxreps":3}`,
		`{"nodes":64,"mode":"nab","seed":12,"minreps":3,"maxreps":3}`,
		`{"nodes":64,"topo":"fattree:8","loss":0.01,"seed":13,"minreps":3,"maxreps":3}`,
		`{"nodes":64,"topo":"fattree:8:o4","jobs":4,"place":"greedy","seed":14,"minreps":3,"maxreps":3}`,
		`{"nodes":4096,"engine":"flow","topo":"fattree:16","iters":3,"seed":15,"minreps":3,"maxreps":3}`,
		`{"nodes":16,"topo":"fattree:4","jobs":2,"iters":3,"seed":3}`,
		`{"nodes":64,"iters":4,"relci":0.1,"seed":1}`, // converges at 7 reps
	}
	bodies := func(workers int) [][]byte {
		s := newTestServer(t, Options{Workers: workers})
		out := make([][]byte, len(specs))
		var wg sync.WaitGroup
		for i, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := post(t, s.Handler(), spec)
				if w.Code != http.StatusOK {
					t.Errorf("workers %d, %s: status %d, body %s", workers, spec, w.Code, w.Body.String())
				}
				out[i] = w.Body.Bytes()
			}()
		}
		wg.Wait()
		if workers > 1 && s.borrowed.Load() == 0 {
			t.Errorf("workers %d: no repetition borrowed a slot", workers)
		}
		return out
	}
	one, four := bodies(1), bodies(4)
	for i, spec := range specs {
		if !bytes.Equal(one[i], four[i]) {
			t.Errorf("%s: body at 1 worker differs from body at 4:\n%s\nvs\n%s", spec, one[i], four[i])
		}
	}
	var last Result
	if err := json.Unmarshal(one[len(specs)-1], &last); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if last.Reps <= last.Spec.MinReps || !last.Converged {
		t.Fatalf("last spec ran %d reps (minreps %d, converged %v): it no longer converges past MinReps",
			last.Reps, last.Spec.MinReps, last.Converged)
	}
}

// TestWorkerBound asserts the semaphore bounds the repetitions in
// flight at Workers 1 and 2: a lone request borrows the idle slot for
// its second up-front repetition, three distinct concurrent requests
// queue, and the peak count of repetitions running at once is exactly
// Workers. Every slot is back once the requests drain.
func TestWorkerBound(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			s := newTestServer(t, Options{Workers: workers})
			var running, peak atomic.Int64
			s.testRep = func(int) {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(50 * time.Millisecond)
				running.Add(-1)
			}
			h := s.Handler()
			spec := func(i int) string {
				return fmt.Sprintf(`{"nodes":8,"cluster":"uniform","iters":2,"seed":%d,"minreps":2,"maxreps":2}`, 100+i)
			}

			if w := post(t, h, spec(0)); w.Code != http.StatusOK {
				t.Fatalf("lone spec: status %d", w.Code)
			}
			if got, want := s.borrowed.Load(), uint64(workers-1); got != want {
				t.Fatalf("lone request borrowed %d slots, want %d", got, want)
			}
			var wg sync.WaitGroup
			for i := 1; i <= 3; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if w := post(t, h, spec(i)); w.Code != http.StatusOK {
						t.Errorf("spec %d: status %d", i, w.Code)
					}
				}(i)
			}
			wg.Wait()
			if got := peak.Load(); got != int64(workers) {
				t.Fatalf("peak repetitions in flight = %d, want %d", got, workers)
			}
			if got := s.runs.Load(); got != 4 {
				t.Fatalf("runs = %d, want 4 distinct scenarios", got)
			}
			if got := s.reps.Load(); got != 8 {
				t.Fatalf("reps = %d, want 8", got)
			}
			if got := s.inflight.Load(); got != 0 {
				t.Fatalf("in-flight = %d after drain, want 0", got)
			}
			if got := len(s.sem); got != 0 {
				t.Fatalf("%d worker slots still held after drain", got)
			}
		})
	}
}

// TestRepPanic: a repetition that panics fails the request with a 500,
// on the caller's slot or a borrowed one, releases every slot it held,
// and stops the run: no repetition after the failed one is simulated.
func TestRepPanic(t *testing.T) {
	// relci 0.0001 keeps the convergence loop drawing to maxreps 20
	// unless the failure stops it.
	const body = `{"nodes":8,"iters":2,"minreps":3,"maxreps":20,"relci":0.0001}`
	for _, tc := range []struct {
		name    string
		workers int
		fail    int // the repetition that panics
		want    int // repetitions started
	}{
		{"caller", 1, 1, 3},   // the up-front reps all start; the run stops after them
		{"borrowed", 2, 1, 3}, // rep 1 always runs on the slot left idle beside the caller's
		{"later", 2, 4, 5},    // a rep drawn one at a time, past MinReps
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Options{Workers: tc.workers})
			var started atomic.Int64
			s.testRep = func(rep int) {
				started.Add(1)
				if rep == tc.fail {
					panic("injected")
				}
			}
			w := post(t, s.Handler(), body)
			if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "scenario failed: injected") {
				t.Fatalf("status %d, body %q; want 500 naming the panic", w.Code, w.Body.String())
			}
			if got := started.Load(); got != int64(tc.want) {
				t.Fatalf("%d repetitions started, want %d", got, tc.want)
			}
			// Whether rep 2 borrows too depends on how soon rep 1 ends.
			if got := s.borrowed.Load(); (got > 0) != (tc.workers > 1) {
				t.Fatalf("%d repetitions borrowed a slot at %d workers", got, tc.workers)
			}
			if got := s.inflight.Load(); got != 0 {
				t.Fatalf("in-flight = %d after the failure, want 0", got)
			}
			if got := len(s.sem); got != 0 {
				t.Fatalf("%d worker slots still held after the failure", got)
			}
			if got := s.runs.Load(); got != 0 {
				t.Fatalf("a failed scenario counted as %d runs", got)
			}
		})
	}
}
