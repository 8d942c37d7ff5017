package cluster

import (
	"math"
	"sync"

	"abred/internal/model"
	"abred/internal/topo"
)

// Pool recycles built clusters across simulation runs. A sweep that
// visits the same cluster shape many times (every figure grid does)
// pays construction — N goroutine-free NICs, cost tables, fabric
// arrays — once per shape instead of once per point: Get returns a
// pooled cluster Reset under the requested seed and fault plan, which
// is byte-identical to building fresh (enforced by the reuse
// determinism tests).
//
// Clusters are matched on their construction-time shape: node specs and
// cost constants. Seed and fault configuration are run-time properties
// that Reset re-applies. Idle pooled clusters hold no goroutines (NIC
// control programs are callback daemons, and rank procs die with each
// run), so an abandoned Pool costs memory only; call Drain for a tidy
// shutdown.
//
// Pool is safe for concurrent use: the sweep engine's workers Get and
// Put from independent goroutines. A nil *Pool pools nothing: Get builds
// a fresh cluster and Put closes it, so callers with an optional pool
// need no branch of their own.
type Pool struct {
	mu   sync.Mutex
	free map[poolKey][]*Cluster

	hits   uint64 // Gets served by a pooled cluster
	misses uint64 // Gets that built fresh
	size   int    // clusters currently pooled
	drains uint64 // clusters closed by Drain
}

// PoolStats is a point-in-time snapshot of a Pool's activity counters —
// the numbers the scenario server's /metrics endpoint reports so "how
// warm is the pool" is observable, not guessed.
type PoolStats struct {
	Hits   uint64 `json:"hits"`   // Gets served by reusing a pooled cluster
	Misses uint64 `json:"misses"` // Gets that had to build fresh
	Size   int    `json:"size"`   // clusters sitting idle in the pool now
	Drains uint64 `json:"drains"` // clusters closed by Drain over the pool's lifetime
}

// Stats returns a consistent snapshot of the pool counters. Hits+Misses
// equals the number of Get calls completed; Size moves with Get/Put and
// returns to zero after a Drain.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Size: p.size, Drains: p.drains}
}

// poolKey summarizes a cluster shape. The spec hash may collide, so Get
// re-verifies actual equality before reusing a cluster.
type poolKey struct {
	n      int
	specs  uint64
	costs  model.Costs
	topo   topo.Spec
	lps    int // normalized requested LP count (1 = monolithic)
	engine Engine
}

// NewPool returns an empty cluster pool.
func NewPool() *Pool {
	return &Pool{free: make(map[poolKey][]*Cluster)}
}

// hashSpecs is FNV-1a over the spec fields, in node order.
func hashSpecs(specs []model.NodeSpec) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	for _, s := range specs {
		for i := 0; i < len(s.Class); i++ {
			mix(uint64(s.Class[i]))
		}
		mix(uint64(s.CPUMHz))
		mix(uint64(s.LANaiMHz))
		mix(math.Float64bits(s.PCIMBps))
	}
	return h
}

func keyOf(cfg Config) poolKey {
	// Topo is keyed normalized so equivalent spellings of one fabric
	// (Oversub 0 vs 1) land in the same bucket.
	return poolKey{n: len(cfg.Specs), specs: hashSpecs(cfg.Specs),
		costs: cfg.costs(), topo: cfg.Topo.Norm(), lps: normLPs(cfg.LPs),
		engine: cfg.Engine}
}

// matches reports whether c was built with exactly this shape.
func (c *Cluster) matches(cfg Config) bool { return c.shapeDiff(cfg) == "" }

// Get returns a cluster for cfg: a pooled one Reset under cfg's seed
// and fault plan if a matching shape is available, a freshly built one
// otherwise. Return it with Put when the run is done.
func (p *Pool) Get(cfg Config) *Cluster {
	if p == nil {
		return New(cfg)
	}
	k := keyOf(cfg)
	var c *Cluster
	p.mu.Lock()
	list := p.free[k]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].matches(cfg) {
			c = list[i]
			list[i] = list[len(list)-1]
			list[len(list)-1] = nil
			p.free[k] = list[:len(list)-1]
			break
		}
	}
	if c != nil {
		p.hits++
		p.size--
	} else {
		p.misses++
	}
	p.mu.Unlock()
	if c == nil {
		return New(cfg)
	}
	c.Reset(cfg)
	return c
}

// Put returns a cluster to the pool for later reuse. The cluster must
// not be used by the caller afterwards. A cluster whose last run
// panicked out of the simulation is closed, not pooled, so a deferred
// Put is safe on every path.
func (p *Pool) Put(c *Cluster) {
	if p == nil || c.running {
		c.Close()
		return
	}
	p.mu.Lock()
	p.free[c.key] = append(p.free[c.key], c)
	p.size++
	p.mu.Unlock()
}

// Drain closes every pooled cluster and empties the pool. The pool
// remains usable; subsequent Gets build fresh.
func (p *Pool) Drain() {
	p.mu.Lock()
	free := p.free
	p.free = make(map[poolKey][]*Cluster)
	p.size = 0
	p.mu.Unlock()
	var closed uint64
	for _, list := range free {
		for _, c := range list {
			c.Close()
			closed++
		}
	}
	p.mu.Lock()
	p.drains += closed
	p.mu.Unlock()
}
