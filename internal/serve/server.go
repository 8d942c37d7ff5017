package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"abred/internal/cluster"
	"abred/internal/stats"
)

// Options configures a Server.
type Options struct {
	// Workers bounds the repetitions simulated at once. A slot runs one
	// repetition: a run holds one slot for its whole convergence loop
	// and borrows idle ones, each for one of its first MinReps
	// repetitions, so requests past the bound queue on the semaphore
	// for at most one borrowed repetition. 0 means GOMAXPROCS.
	Workers int
	// CacheSize is the in-memory LRU capacity in responses (0 = 4096).
	CacheSize int
	// CacheDir, when non-empty, enables the on-disk result store.
	CacheDir string
	// Limits bound incoming specs (see Limits).
	Limits Limits
}

// Server is the scenario service: one shared warmed cluster pool, a
// content-addressed response cache, single-flight deduplication of
// identical concurrent specs, and a bounded simulation worker pool.
// Create with New, expose with Handler, release with Close.
type Server struct {
	opts  Options
	pool  *cluster.Pool
	cache *Cache
	sem   chan struct{}
	mux   *http.ServeMux

	mu      sync.Mutex
	flights map[string]*flight

	requests atomic.Uint64 // POST /run requests accepted (parsed OK)
	badSpecs atomic.Uint64 // POST /run requests rejected with 400
	runs     atomic.Uint64 // scenarios actually simulated
	reps     atomic.Uint64 // repetitions simulated, over every run
	borrowed atomic.Uint64 // of which on an idle worker slot the run borrowed
	dedups   atomic.Uint64 // requests that rode another request's run
	inflight atomic.Int64  // simulations running or queued right now

	latMu   sync.Mutex
	latRing []float64 // wall ms of completed runs, ring-buffered
	latNext int
	latN    int

	// testRep runs at the start of every repetition; test-only
	// (single-flight, shutdown and worker-bound tests need slow or
	// failing repetitions).
	testRep func(rep int)
}

// flight is one in-progress computation other requests can wait on.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// New builds a Server. It returns an error only when the disk cache
// directory cannot be created.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	cache, err := NewCache(opts.CacheSize, opts.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		pool:    cluster.NewPool(),
		cache:   cache,
		sem:     make(chan struct{}, opts.Workers),
		flights: make(map[string]*flight),
		latRing: make([]float64, 256),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the shared cluster pool. Call after the HTTP server has
// shut down; in-flight runs must have finished.
func (s *Server) Close() { s.pool.Drain() }

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Metrics is the /metrics document: execution-side observability the
// deterministic /run bodies deliberately exclude.
type Metrics struct {
	Requests     uint64             `json:"requests"`
	BadSpecs     uint64             `json:"bad_specs"`
	Runs         uint64             `json:"runs"`
	Reps         uint64             `json:"reps"`          // repetitions simulated
	RepsBorrowed uint64             `json:"reps_borrowed"` // of which on an idle worker slot
	Dedups       uint64             `json:"singleflight_dedups"`
	InFlight     int64              `json:"in_flight"`
	Workers      int                `json:"workers"`
	Cache        CacheStats         `json:"cache"`
	Pool         cluster.PoolStats  `json:"pool"`
	RunLatencyMS stats.FloatSummary `json:"run_latency_ms"` // over the last 256 completed runs
}

// handleMetrics reports counters as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.latMu.Lock()
	lats := make([]float64, 0, s.latN)
	for i := 0; i < s.latN; i++ {
		lats = append(lats, s.latRing[i])
	}
	s.latMu.Unlock()
	m := Metrics{
		Requests:     s.requests.Load(),
		BadSpecs:     s.badSpecs.Load(),
		Runs:         s.runs.Load(),
		Reps:         s.reps.Load(),
		RepsBorrowed: s.borrowed.Load(),
		Dedups:       s.dedups.Load(),
		InFlight:     s.inflight.Load(),
		Workers:      s.opts.Workers,
		Cache:        s.cache.Stats(),
		Pool:         s.pool.Stats(),
		RunLatencyMS: stats.SummarizeFloats(lats),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(m)
}

// recordLatency folds one completed run's wall time into the ring.
func (s *Server) recordLatency(wall time.Duration) {
	ms := float64(wall) / float64(time.Millisecond)
	s.latMu.Lock()
	s.latRing[s.latNext] = ms
	s.latNext = (s.latNext + 1) % len(s.latRing)
	if s.latN < len(s.latRing) {
		s.latN++
	}
	s.latMu.Unlock()
}

// handleRun is POST /run: decode, normalize, serve from cache or
// compute (deduplicated, bounded by the worker pool).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a scenario spec to /run", http.StatusMethodNotAllowed)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var raw Spec
	if err := dec.Decode(&raw); err != nil {
		s.badSpecs.Add(1)
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := raw.Normalize(s.opts.Limits)
	if err != nil {
		s.badSpecs.Add(1)
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.requests.Add(1)
	key := spec.Key()

	body, src, err := s.lookupOrRun(r, spec, key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", src)
	w.Header().Set("X-Scenario-Key", key)
	_, _ = w.Write(body)
}

// lookupOrRun resolves one scenario key to a response body and its
// source: "hit" (cache), "dedup" (rode a concurrent identical
// request's run) or "miss" (computed here). The cache check and flight
// registration are atomic under s.mu, so any number of identical
// concurrent requests produce exactly one simulation.
func (s *Server) lookupOrRun(r *http.Request, spec Spec, key string) ([]byte, string, error) {
	s.mu.Lock()
	if body, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		return body, "hit", nil
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.dedups.Add(1)
		select {
		case <-f.done:
			return f.body, "dedup", f.err
		case <-r.Context().Done():
			return nil, "", r.Context().Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	f.body, f.err = s.compute(spec, key)
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	return f.body, "miss", f.err
}

// compute simulates one scenario on the shared pool, holding one slot
// of the worker semaphore and borrowing idle ones, and stores the body
// in the cache.
func (s *Server) compute(spec Spec, key string) ([]byte, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	start := time.Now()
	rn := newRunner(spec, s.pool, s.sem, s.testRep)
	res, err := rn.run()
	s.reps.Add(uint64(rn.ran))
	s.borrowed.Add(uint64(rn.borrowed))
	if err != nil {
		return nil, err
	}
	s.runs.Add(1)
	s.recordLatency(time.Since(start))

	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	s.cache.Put(key, body)
	return body, nil
}
