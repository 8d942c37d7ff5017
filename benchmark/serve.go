package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"abred/internal/cluster"
	"abred/internal/model"
	"abred/internal/serve"
	"abred/internal/sim"
	"abred/internal/stats"
	"abred/internal/workload"
)

// coldClass is one shape of never-seen scenario. Sizes are chosen so a
// cold request costs 30–110 ms on the reference host and a 15-second
// run collects a few hundred of them. Every timed scenario runs exactly
// three repetitions: left to converge, the tenancy class would stop at
// 3 or run all 20 depending on the seed, and that coin flip, not the
// code under test, would set the spread of a round's wall. The hot set
// converges by the server's defaults, during set-up.
type coldClass struct {
	name string
	spec serve.Spec
}

const timedReps = 3

var coldClasses = []coldClass{
	{"c64_ab", serve.Spec{Nodes: 64, Mode: "ab"}},
	{"c64_nab", serve.Spec{Nodes: 64, Mode: "nab"}},
	{"c64_ft_lossy", serve.Spec{Nodes: 64, Topo: "fattree:8", Loss: 0.01}},
	{"c64_tenancy", serve.Spec{Nodes: 64, Topo: "fattree:8:o4", Jobs: 4, Place: "greedy"}},
	{"c4096_flow", serve.Spec{Nodes: 4096, Engine: "flow", Topo: "fattree:16", Iters: 3}},
}

// timed returns the class's scenario under a seed, with its repetitions
// pinned.
func timed(s serve.Spec, seed int64) []byte {
	s.Seed, s.MinReps, s.MaxReps = seed, timedReps, timedReps
	return mustJSON(s)
}

// tenancyShape is the class whose single repetition the workload probe
// times and whose cluster is the one the serve_mix pool spans build.
var (
	tenancyShape = coldClasses[3]
	flowShape    = coldClasses[4]
)

// tenancyConfig maps the class onto workload.TenancyConfig the way the
// server does, with the server's default iterations, skew and arrival.
func (c coldClass) tenancyConfig(seed int64) workload.TenancyConfig {
	place, err := workload.ParsePlacement(c.spec.Place)
	if err != nil {
		panic(err)
	}
	return workload.TenancyConfig{
		Specs:       model.PaperCluster(c.spec.Nodes),
		Topo:        mustTopo(c.spec.Topo),
		Seed:        seed,
		Jobs:        c.spec.Jobs,
		MeanArrival: sim.Time(50 * time.Microsecond),
		Iters:       20,
		Count:       cellCount,
		MaxSkew:     cellSkew,
		Style:       workload.StyleBypass,
		Place:       place,
	}
}

// The fixed request mix of one round: 500 requests.
const (
	hotSetSize   = 64
	coldPerClass = 6   // × 5 classes = 30 requests, 6 %
	hitsPerRound = 440 // 88 %, half of them spelling variants
	pairsPerRnd  = 5   // × 2 clients = 10 requests, 2 %
	badPerRound  = 20  // 4 %
	clients      = 2
)

type reqKind uint8

const (
	kindCold reqKind = iota
	kindHit
	kindDedup
	kindBad
)

func (k reqKind) String() string { return [...]string{"cold", "hit", "dedup", "bad"}[k] }

// request is one scheduled POST.
type request struct {
	kind  reqKind
	class string // cold requests: the class name
	hot   int    // hits: index into the hot set
	pair  int    // dedup requests: pair index within the round
	body  []byte
}

// specSeed gives every generated scenario of a run its own simulation
// seed, so no cold request was ever seen before. gen is -1 for the hot
// set and the round number otherwise.
func specSeed(seed int64, gen, i int) int64 {
	return seed*1_000_003 + int64(gen+1)*10_007 + int64(i) + 1
}

func mustJSON(x any) []byte {
	b, err := json.Marshal(x)
	if err != nil {
		panic(err)
	}
	return b
}

// hotSpec is entry i of the hot set: 32-node scenarios, alternately on
// the crossbar and on a fat-tree so every spelling variant applies.
// variant selects an equivalent spelling of the same scenario: the skew
// as "1000us" instead of the default 1 ms, lps 1 instead of omitted,
// and the fat-tree with an explicit :o1.
func hotSpec(seed int64, i int, variant bool) []byte {
	m := map[string]any{"nodes": 32, "iters": 10, "seed": specSeed(seed, -1, i)}
	if i%4 >= 2 {
		m["mode"] = "nab"
	}
	if i%2 == 1 {
		m["topo"] = "fattree:8"
	}
	if variant {
		m["skew"] = "1000us"
		m["lps"] = 1
		if i%2 == 1 {
			m["topo"] = "fattree:8:o1"
		}
	}
	return mustJSON(m)
}

var badSpecs = [][]byte{
	[]byte(`{"nodes":1}`),
	[]byte(`{"nodes":64,"bogus":true}`),
	[]byte(`{"nodes":64,"mode":"zzz"}`),
	[]byte(`{"nodes":`),
}

// makeRound builds round r's schedule from the seed: the fixed mix,
// shuffled, dealt alternately to the two clients. A dedup pair appears
// in both clients' lists, in the same order, so the clients can meet at
// it.
func makeRound(seed int64, r int) [clients][]request {
	rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
	var singles []request
	n := 0
	for _, c := range coldClasses {
		for j := 0; j < coldPerClass; j++ {
			singles = append(singles, request{kind: kindCold, class: c.name, body: timed(c.spec, specSeed(seed, r, n))})
			n++
		}
	}
	for j := 0; j < hitsPerRound; j++ {
		h := rng.Intn(hotSetSize)
		singles = append(singles, request{kind: kindHit, hot: h, body: hotSpec(seed, h, j%2 == 1)})
	}
	for j := 0; j < badPerRound; j++ {
		singles = append(singles, request{kind: kindBad, body: badSpecs[j%len(badSpecs)]})
	}
	rng.Shuffle(len(singles), func(a, b int) { singles[a], singles[b] = singles[b], singles[a] })

	var out [clients][]request
	for i, q := range singles {
		out[i%clients] = append(out[i%clients], q)
	}
	// Pairs go in at evenly spaced positions of both lists.
	step := len(out[0]) / (pairsPerRnd + 1)
	for p := pairsPerRnd - 1; p >= 0; p-- {
		q := request{kind: kindDedup, pair: p, body: timed(serve.Spec{Nodes: 64}, specSeed(seed, r, n))}
		n++
		at := (p + 1) * step
		for c := range out {
			out[c] = append(out[c][:at], append([]request{q}, out[c][at:]...)...)
		}
	}
	return out
}

// server is the abserve child process.
type server struct {
	cmd      *exec.Cmd
	base     string
	cacheDir string
	stderr   bytes.Buffer
	started  time.Time
}

// buildServer compiles cmd/abserve into out. It is not part of set-up
// time: a user starts an installed binary.
func buildServer(out string) (string, error) {
	bin := filepath.Join(out, "abserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/abserve")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/abserve: %w", err)
	}
	return bin, nil
}

// startServer launches abserve on a free loopback port with a fresh
// disk cache under out, as `make serve` does, and waits for /healthz.
func startServer(bin, out string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "abserve-cache-")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, cacheDir: dir, started: time.Now()}
	s.cmd = exec.Command(bin, "-addr", addr, "-cachedir", dir)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		_ = os.RemoveAll(dir) // nothing was written yet
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			_ = s.stop() // the start-up failure is the error worth reporting
			return nil, fmt.Errorf("abserve not healthy after 10 s: %v\n%s", err, s.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *server) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}

// stop sends SIGTERM and waits. abserve must drain and exit 0; the
// cache directory is removed afterwards and must be gone.
func (s *server) stop() error {
	var errs []error
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		errs = append(errs, fmt.Errorf("SIGTERM: %w", err))
		_ = s.cmd.Process.Kill() // fall back so Wait returns
	}
	if err := s.cmd.Wait(); err != nil {
		errs = append(errs, fmt.Errorf("abserve exit: %w\n%s", err, s.stderr.String()))
	}
	if err := os.RemoveAll(s.cacheDir); err != nil {
		errs = append(errs, err)
	} else if _, err := os.Stat(s.cacheDir); !errors.Is(err, os.ErrNotExist) {
		errs = append(errs, fmt.Errorf("cache dir %s still present", s.cacheDir))
	}
	return errors.Join(errs...)
}

// reply is what a POST to /run came back with.
type reply struct {
	status int
	cache  string // X-Cache
	key    string // X-Scenario-Key
	body   []byte
	lat    time.Duration // request written → last byte of the body read
}

// post sends one scenario on the client's keep-alive connection.
func post(hc *http.Client, base string, body []byte) (reply, error) {
	t0 := time.Now()
	resp, err := hc.Post(base+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("read body: %w", err)
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"),
		key: resp.Header.Get("X-Scenario-Key"), body: b, lat: time.Since(t0)}, nil
}

// hotEntry is what set-up learned about one hot scenario.
type hotEntry struct {
	key  string
	body []byte // the first body seen for the key
	reps float64
}

// samples are one client's measurements; the two clients' are merged
// after a round.
type samples struct {
	coldMS  map[string][]float64 // by class
	hitUS   []float64
	dedupMS []float64
	badUS   []float64
	events  uint64  // simulated events behind the cold and dedup replies
	ops     []error // one entry per request; nil is success
}

func newSamples() *samples { return &samples{coldMS: make(map[string][]float64)} }

func (s *samples) merge(o *samples) {
	for k, xs := range o.coldMS {
		s.coldMS[k] = append(s.coldMS[k], xs...)
	}
	s.hitUS = append(s.hitUS, o.hitUS...)
	s.dedupMS = append(s.dedupMS, o.dedupMS...)
	s.badUS = append(s.badUS, o.badUS...)
	s.events += o.events
	s.ops = append(s.ops, o.ops...)
}

func (s *samples) allCold() []float64 {
	var xs []float64
	for _, c := range coldClasses {
		xs = append(xs, s.coldMS[c.name]...)
	}
	return xs
}

// pairSync is where the two clients meet around one dedup pair.
type pairSync struct {
	arrive, start, finish sync.WaitGroup
	runsBefore            uint64
	metricsErr            error
	bodies                [clients][]byte
}

// mix is a running serve_mix workload.
type mix struct {
	srv  *server
	seed int64
	hot  []hotEntry
	hcs  [clients]*http.Client

	rounds, colds, pairs, hits int // what was scheduled so far
}

func newMix(srv *server, seed int64) *mix {
	m := &mix{srv: srv, seed: seed}
	for i := range m.hcs {
		m.hcs[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return m
}

func (m *mix) close() {
	for _, hc := range m.hcs {
		hc.CloseIdleConnections()
	}
}

// warm POSTs the hot set in its canonical spelling, split over the two
// clients, and records each scenario's key and body.
func (m *mix) warm() error {
	m.hot = make([]hotEntry, hotSetSize)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < hotSetSize; i += clients {
				rp, err := post(m.hcs[c], m.srv.base, hotSpec(m.seed, i, false))
				if err == nil && (rp.status != http.StatusOK || rp.cache != "miss") {
					err = fmt.Errorf("status %d X-Cache %q: %s", rp.status, rp.cache, rp.body)
				}
				var sm simulated
				if err == nil {
					err = json.Unmarshal(rp.body, &sm)
				}
				if err != nil {
					errs[c] = fmt.Errorf("hot spec %d: %w", i, err)
					return
				}
				m.hot[i] = hotEntry{key: rp.key, body: rp.body, reps: float64(sm.Reps)}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// simulated is the part of a /run body the benchmark reads.
type simulated struct {
	Reps   int    `json:"reps"`
	Events uint64 `json:"events"`
}

// do sends one request and checks the reply against what its kind
// expects.
func (m *mix) do(c int, q request, s *samples) (reply, error) {
	rp, err := post(m.hcs[c], m.srv.base, q.body)
	if err != nil {
		return rp, fmt.Errorf("%v request: %w", q.kind, err)
	}
	want := http.StatusOK
	if q.kind == kindBad {
		want = http.StatusBadRequest
	}
	if rp.status != want {
		return rp, fmt.Errorf("%v request %s: status %d, want %d: %s", q.kind, q.body, rp.status, want, rp.body)
	}
	switch q.kind {
	case kindBad:
		s.badUS = append(s.badUS, micros(rp.lat))
	case kindHit:
		h := m.hot[q.hot]
		switch {
		case rp.cache != "hit":
			return rp, fmt.Errorf("hit request %s: X-Cache %q", q.body, rp.cache)
		case rp.key != h.key:
			return rp, fmt.Errorf("hit request %s: key %s, its canonical spelling had %s", q.body, rp.key, h.key)
		case !bytes.Equal(rp.body, h.body):
			return rp, fmt.Errorf("hit request %s: body differs from the first body of key %s", q.body, rp.key)
		}
		s.hitUS = append(s.hitUS, micros(rp.lat))
	case kindCold:
		if rp.cache != "miss" {
			return rp, fmt.Errorf("cold request %s: X-Cache %q", q.body, rp.cache)
		}
		var sm simulated
		if err := json.Unmarshal(rp.body, &sm); err != nil {
			return rp, fmt.Errorf("cold request %s: body: %w", q.body, err)
		}
		s.events += sm.Events
		s.coldMS[q.class] = append(s.coldMS[q.class], millis(rp.lat))
	}
	return rp, nil
}

// doPair is one client's half of a dedup pair: both clients are idle at
// arrive, so the server's run counter may move only by this pair; both
// POST the same fresh scenario at start; after finish client 0 checks
// that exactly one simulation ran and both got the same body.
func (m *mix) doPair(c int, q request, p *pairSync, s *samples) error {
	p.arrive.Done()
	p.arrive.Wait()
	if c == 0 {
		mt, err := m.srv.metrics()
		p.runsBefore, p.metricsErr = mt.Runs, err
	}
	p.start.Done()
	p.start.Wait()
	rp, err := m.do(c, q, s)
	p.bodies[c] = rp.body
	p.finish.Done()
	p.finish.Wait()
	if err != nil || c != 0 {
		return err
	}
	s.dedupMS = append(s.dedupMS, millis(rp.lat))
	var sm simulated
	if err := json.Unmarshal(rp.body, &sm); err != nil {
		return fmt.Errorf("dedup request %s: body: %w", q.body, err)
	}
	s.events += sm.Events
	mt, err := m.srv.metrics()
	switch {
	case p.metricsErr != nil:
		return p.metricsErr
	case err != nil:
		return err
	case mt.Runs-p.runsBefore != 1:
		return fmt.Errorf("dedup pair %s: %d simulations ran, want 1", q.body, mt.Runs-p.runsBefore)
	case !bytes.Equal(p.bodies[0], p.bodies[1]):
		return fmt.Errorf("dedup pair %s: the two clients got different bodies", q.body)
	}
	return nil
}

// runRound plays the next round: a closed loop of two clients, each
// sending its next request when the previous reply is complete.
func (m *mix) runRound(tr *tracer) (*samples, time.Duration) {
	sched := makeRound(m.seed, m.rounds)
	m.rounds++
	m.colds += coldPerClass * len(coldClasses)
	m.pairs += pairsPerRnd
	m.hits += hitsPerRound
	syncs := make([]pairSync, pairsPerRnd)
	for i := range syncs {
		syncs[i].arrive.Add(clients)
		syncs[i].start.Add(clients)
		syncs[i].finish.Add(clients)
	}
	per := [clients]*samples{newSamples(), newSamples()}
	root := tr.begin("round", -1, -1)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := per[c]
			for i, q := range sched[c] {
				name := "serve." + q.kind.String()
				if q.kind == kindCold {
					name += "." + q.class
				}
				sp := tr.begin(name, i*clients+c, root)
				var err error
				if q.kind == kindDedup {
					err = m.doPair(c, q, &syncs[q.pair], s)
				} else {
					_, err = m.do(c, q, s)
				}
				tr.end(sp)
				s.ops = append(s.ops, err)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	tr.end(root)
	per[0].merge(per[1])
	return per[0], wall
}

// runServe is the serve_mix workload, untraced (tr nil) or traced. The
// traced run times the same untraced rounds — its client-side latency
// percentiles come from them — and then plays one more round with a
// span around every request.
func runServe(seed int64, budget time.Duration, out string, v values, t *tally, tr *tracer) error {
	traced := tr != nil
	bin, err := buildServer(out)
	if err != nil {
		return err
	}
	srv, err := startServer(bin, out)
	if err != nil {
		return err
	}
	m := newMix(srv, seed)
	defer m.close()
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.stop() // an earlier error is already being returned
		}
	}()
	if err := m.warm(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	v["setup_s"] = time.Since(srv.started).Seconds()

	all := newSamples()
	var walls []float64
	var first serve.Metrics // after set-up and round 0: the same requests whatever the time budget
	var firstEvents uint64
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < budget; r++ {
		s, wall := m.runRound(nil)
		all.merge(s)
		walls = append(walls, wall.Seconds())
		fmt.Fprintf(os.Stderr, "benchmark: serve_mix round %d: %.3f s\n", r, wall.Seconds())
		if r == 0 && traced {
			firstEvents = s.events
			if first, err = srv.metrics(); err != nil {
				return err
			}
		}
	}
	var total float64
	for _, w := range walls {
		total += w
	}
	v["round_wall_s_p50"] = median(walls)
	v["events_per_s"] = ratio(float64(all.events), total)

	if traced {
		s, wall := m.runRound(tr)
		for _, err := range s.ops {
			t.op(err)
		}
		v["trace.overhead_pct"] = (wall.Seconds()/median(walls) - 1) * 100
		v["sim.events"] = float64(firstEvents)
		v["serve.req_per_s"] = ratio(float64(len(all.ops)), total)
		cold := all.allCold()
		v["serve.cold_post_ms_p50"] = median(cold)
		v["serve.cold_post_ms_p90"] = tailValue(cold, 90)
		v["serve.hit_post_us_p50"] = median(all.hitUS)
		v["serve.hit_post_us_p99"] = tailValue(all.hitUS, 99)
		for _, c := range coldClasses {
			v["serve.cold_ms_p50."+c.name] = median(all.coldMS[c.name])
		}
		v["serve.dedup_ms_p50"] = median(all.dedupMS)
		v["serve.bad_spec_us_p50"] = median(all.badUS)
		var reps []float64
		for _, h := range m.hot {
			reps = append(reps, h.reps)
		}
		v["stats.converge_reps_mean"] = stats.MeanFloat(reps)
	}
	for _, err := range all.ops {
		t.op(err)
	}

	// The mix that was intended is the mix that ran: every hot, cold and
	// paired scenario simulated exactly once, every scheduled hit served
	// from memory.
	mt, err := srv.metrics()
	if err != nil {
		return err
	}
	if want := uint64(hotSetSize + m.colds + m.pairs); mt.Runs != want {
		t.problem("abserve ran %d simulations, the schedule has %d", mt.Runs, want)
	}
	if mt.Cache.Hits < uint64(m.hits) {
		t.problem("abserve served %d cache hits, the schedule has %d", mt.Cache.Hits, m.hits)
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		t.problem("peak rss: %v", err)
	}
	v["peak_rss_mb"] = rss
	stopped = true
	if err := srv.stop(); err != nil {
		t.problem("shutdown: %v", err)
	}

	if traced {
		v["serve.runs"] = float64(first.Runs)
		v["serve.dedups"] = float64(first.Dedups)
		v["serve.cache_hits"] = float64(first.Cache.Hits)
		v["serve.cache_misses"] = float64(first.Cache.Misses)
		v["serve.cache_disk_hits"] = float64(first.Cache.DiskHits)
		v["serve.run_ms_p50"] = mt.RunLatencyMS.P50
		v["serve.overhead_ms_p50"] = v["serve.cold_post_ms_p50"] - mt.RunLatencyMS.P50
		v["cluster.pool_hits"] = float64(first.Pool.Hits)
		v["cluster.pool_misses"] = float64(first.Pool.Misses)
		poolTimes(cluster.Config{Specs: model.PaperCluster(flowShape.spec.Nodes),
			Seed: seed, Topo: mustTopo(flowShape.spec.Topo), Engine: cluster.EngineFlow}, v)
	}
	return nil
}
