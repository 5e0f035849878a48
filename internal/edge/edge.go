// Package edge models the proxy tier in front of the cluster: edge
// nodes hold the first PrefixSec seconds of selected videos in a
// bounded byte budget and serve those prefixes locally, so the cluster
// streams only the suffix of a hit title (or nothing at all when the
// cached prefix covers the whole video). Which prefixes a node holds is
// a CachePolicy chosen by name from a fixed table; names are validated
// before a run starts.
//
// The package is deliberately free of core dependencies — it knows
// nothing about servers, requests, or events. The engine asks one
// question per arrival (Hit) and the policy answers from its own
// state, so the admission hot path stays allocation-free.
package edge

import (
	"fmt"
	"slices"
)

// CachePolicy decides which video prefixes one edge node holds. A
// policy is per-node state: the engine creates one instance per edge
// node and Resets it at the start of every run.
//
// Implementations must be deterministic functions of the Reset
// arguments and the Hit call sequence, and Hit must not allocate — it
// sits on the per-arrival admission hot path.
type CachePolicy interface {
	// Name returns the policy's name.
	Name() string

	// Reset installs the working set for a run: prefixMb[v] is video
	// v's prefix size in Mb (already clamped to the video size) and
	// budgetMb the node's cache byte budget. The policy must not retain
	// prefixMb; it is shared across nodes.
	Reset(prefixMb []float64, budgetMb float64)

	// Hit reports whether video v's prefix is on this node, updating
	// any replacement state (a miss may admit v for future requests).
	Hit(v int) bool
}

// Names of the cache policies.
const (
	// PolicyStaticZipf pins prefixes at Reset in popularity order
	// (video 0 is the most popular): a first-fit greedy fill that
	// walks the catalog once and caches every prefix that still fits
	// the remaining budget. The content never changes during a run —
	// the optimal-prefix-replication shape under a known Zipf demand.
	// The default.
	PolicyStaticZipf = "static-zipf"
	// PolicyLRU starts empty and fills on demand: a miss admits the
	// video's prefix, evicting least-recently-used prefixes until it
	// fits. Models a node that learns popularity from traffic instead
	// of being provisioned with it.
	PolicyLRU = "lru"
)

// policies maps each cache-policy name to its constructor. Each edge
// node gets its own instance, because a policy owns mutable replacement
// state.
var policies = map[string]func() CachePolicy{
	PolicyStaticZipf: func() CachePolicy { return new(staticZipf) },
	PolicyLRU:        func() CachePolicy { return new(lru) },
}

// Has reports whether a cache policy with the given name exists.
func Has(name string) bool {
	_, ok := policies[name]
	return ok
}

// Names returns the cache-policy names, sorted.
func Names() []string {
	names := make([]string, 0, len(policies))
	for n := range policies {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// New builds a cache policy by name ("" selects the default).
// Validation vets names before a run starts, so an unknown name is a
// programming error and panics.
func New(name string) CachePolicy {
	if name == "" {
		name = PolicyStaticZipf
	}
	newPolicy, ok := policies[name]
	if !ok {
		panic(fmt.Sprintf("edge: unknown cache policy %q", name))
	}
	return newPolicy()
}

// GreedyFill is the static-zipf fill rule, exported so analytic models
// and tests can reproduce a node's content exactly: walking prefixMb in
// index order (most popular first), it marks cached[v] for every prefix
// that still fits the remaining budget and returns the total bytes
// cached. Zero-size prefixes are never cached — a hit must mean bytes
// actually served locally.
func GreedyFill(prefixMb []float64, budgetMb float64, cached []bool) float64 {
	used := 0.0
	for v, p := range prefixMb {
		if p <= 0 {
			cached[v] = false
			continue
		}
		if used+p <= budgetMb {
			cached[v] = true
			used += p
		} else {
			cached[v] = false
		}
	}
	return used
}

// staticZipf implements PolicyStaticZipf.
type staticZipf struct {
	cached []bool
}

func (p *staticZipf) Name() string { return PolicyStaticZipf }

func (p *staticZipf) Reset(prefixMb []float64, budgetMb float64) {
	if cap(p.cached) < len(prefixMb) {
		p.cached = make([]bool, len(prefixMb))
	} else {
		p.cached = p.cached[:len(prefixMb)]
	}
	GreedyFill(prefixMb, budgetMb, p.cached)
}

func (p *staticZipf) Hit(v int) bool { return p.cached[v] }

// lru implements PolicyLRU: an intrusive doubly-linked recency list
// over video ids backed by flat arrays, so Hit is pointer-free and
// allocation-free.
type lru struct {
	prefix []float64 // shared per-run prefix sizes (read-only)
	budget float64
	used   float64

	cached     []bool
	prev, next []int32 // recency links, valid only while cached
	head, tail int32   // most / least recently used, -1 when empty
}

func (p *lru) Name() string { return PolicyLRU }

func (p *lru) Reset(prefixMb []float64, budgetMb float64) {
	n := len(prefixMb)
	if cap(p.cached) < n {
		p.cached = make([]bool, n)
		p.prev = make([]int32, n)
		p.next = make([]int32, n)
	} else {
		p.cached = p.cached[:n]
		p.prev = p.prev[:n]
		p.next = p.next[:n]
		for i := range p.cached {
			p.cached[i] = false
		}
	}
	p.prefix = prefixMb
	p.budget = budgetMb
	p.used = 0
	p.head, p.tail = -1, -1
}

// unlink removes a cached video from the recency list.
func (p *lru) unlink(v int32) {
	if p.prev[v] >= 0 {
		p.next[p.prev[v]] = p.next[v]
	} else {
		p.head = p.next[v]
	}
	if p.next[v] >= 0 {
		p.prev[p.next[v]] = p.prev[v]
	} else {
		p.tail = p.prev[v]
	}
}

// pushFront makes v the most recently used entry.
func (p *lru) pushFront(v int32) {
	p.prev[v] = -1
	p.next[v] = p.head
	if p.head >= 0 {
		p.prev[p.head] = v
	}
	p.head = v
	if p.tail < 0 {
		p.tail = v
	}
}

func (p *lru) Hit(v int) bool {
	id := int32(v)
	if p.cached[v] {
		if p.head != id {
			p.unlink(id)
			p.pushFront(id)
		}
		return true
	}
	// Miss: admit v's prefix for future requests, evicting from the
	// cold end until it fits. A prefix larger than the whole budget is
	// simply never cached.
	size := p.prefix[v]
	if size <= 0 || size > p.budget {
		return false
	}
	for p.used+size > p.budget && p.tail >= 0 {
		ev := p.tail
		p.unlink(ev)
		p.cached[ev] = false
		p.used -= p.prefix[ev]
	}
	p.cached[v] = true
	p.used += size
	p.pushFront(id)
	return false
}
