// Package fault builds deterministic fault plans for the fabric: seeded
// per-link frame drop, duplication and reorder jitter, plus scripted
// "drop the Nth frame on link (s,d)" losses for regression tests that
// need a specific failure rather than a statistical one.
//
// A Plan implements fabric.Injector. Every random decision comes from
// one dedicated stream seeded by Config.Seed — never from the kernel's
// numbered streams (which feed skew generation), so turning faults on
// or off cannot perturb any other randomized quantity, and two runs
// with the same seed make identical drop decisions frame for frame.
// Determinism holds because the simulation injects frames in a fixed
// order: the Nth Judge call is always about the same frame.
//
// Loopback frames (src == dst) never cross the switch and are never
// faulted; GM's reliability layer relies on that (it does not sequence
// loopback traffic).
package fault

import (
	"fmt"
	"math/rand"

	"abred/internal/fabric"
	"abred/internal/sim"
)

// Rule is the stochastic fault profile of a link.
type Rule struct {
	Drop    float64  // per-frame drop probability
	Dup     float64  // per-frame duplication probability
	Jitter  sim.Time // max extra delivery delay when jitter fires
	JitterP float64  // probability a frame is jittered
}

// Link overrides the cluster-wide default rule on one directed link.
type Link struct {
	Src, Dst int
	Rule
}

// Script drops the Nth frame injected on one directed link.
type Script struct {
	Src, Dst int
	Nth      uint64 // 1-based frame ordinal on that link
}

// Config describes a fault plan. The zero Config is a clean fabric.
// The embedded Rule is the cluster-wide default; Links override it per
// directed link.
type Config struct {
	Seed int64 // dedicated fault stream, never shared with skew RNG
	Rule
	Links   []Link
	Scripts []Script
}

// Enabled reports whether the config injects any fault at all — the
// cluster installs no injectors (fabric.SetInjectors), leaving every
// shard's Send allocation-free and byte-identical to a fault-free
// fabric, when it returns false.
func (c Config) Enabled() bool {
	if c.Rule != (Rule{}) || len(c.Scripts) > 0 {
		return true
	}
	for _, l := range c.Links {
		if l.Rule != (Rule{}) {
			return true
		}
	}
	return false
}

// CheckDrop refuses a cluster-wide drop probability outside [0, 1): at 1
// every frame is lost and reliable delivery declares every port dead.
func CheckDrop(p float64) error {
	if p >= 0 && p < 1 {
		return nil
	}
	return fmt.Errorf("fault: drop probability %v outside [0, 1)", p)
}

// Plan is a compiled fault plan for one simulation. Plans hold mutable
// state (the RNG, per-link frame counts) and must not be shared across
// concurrently running kernels — compile one per cluster from the same
// Config; identical configs yield identical behavior.
type Plan struct {
	rng    *rand.Rand
	def    Rule
	rules  map[[2]int]Rule
	counts map[[2]int]uint64          // frames seen per link, for scripts
	script map[[2]int]map[uint64]bool // scripted drops by link and ordinal
}

// New compiles cfg into a Plan, or nil when cfg injects nothing.
func New(cfg Config) *Plan {
	if !cfg.Enabled() {
		return nil
	}
	p := &Plan{
		rng: rand.New(rand.NewSource(cfg.Seed)),
		def: cfg.Rule,
	}
	if len(cfg.Links) > 0 {
		p.rules = make(map[[2]int]Rule, len(cfg.Links))
		for _, l := range cfg.Links {
			p.rules[[2]int{l.Src, l.Dst}] = l.Rule
		}
	}
	if len(cfg.Scripts) > 0 {
		p.counts = make(map[[2]int]uint64)
		p.script = make(map[[2]int]map[uint64]bool, len(cfg.Scripts))
		for _, s := range cfg.Scripts {
			key := [2]int{s.Src, s.Dst}
			if p.script[key] == nil {
				p.script[key] = make(map[uint64]bool)
			}
			p.script[key][s.Nth] = true
		}
	}
	return p
}

// Judge implements fabric.Injector: it decides the fate of the next
// frame on link (src, dst).
func (p *Plan) Judge(src, dst int) fabric.Verdict {
	var v fabric.Verdict
	if src == dst {
		return v // loopback never crosses the switch
	}
	key := [2]int{src, dst}
	if p.script != nil {
		n := p.counts[key] + 1
		p.counts[key] = n
		if s := p.script[key]; s != nil && s[n] {
			v.Drop = true
			return v
		}
	}
	r := p.def
	if p.rules != nil {
		if o, ok := p.rules[key]; ok {
			r = o
		}
	}
	if r.Drop > 0 && p.rng.Float64() < r.Drop {
		v.Drop = true
		return v
	}
	if r.Dup > 0 && p.rng.Float64() < r.Dup {
		v.Dup = true
	}
	if r.JitterP > 0 && r.Jitter > 0 && p.rng.Float64() < r.JitterP {
		v.Delay = sim.Time(p.rng.Int63n(int64(r.Jitter))) + 1
	}
	return v
}
