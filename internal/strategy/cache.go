package strategy

import (
	"sync"
	"sync/atomic"

	"ampsched/internal/core"
)

// cacheKey identifies one solved scheduling problem: the chain's content
// fingerprint, the resource pair, the strategy, and every Options knob
// that can change the emitted schedule. The Metrics/Trace sinks are
// deliberately absent: they observe a solve without influencing it.
type cacheKey struct {
	fp       uint64
	r        core.Resources
	strategy string
	colocate bool
}

// requestKey derives req's cache key. ok is false when the request does
// not participate in caching: no cache attached, or malformed (nil chain
// or scheduler, or a core-type mismatch — those fail in plan with a
// descriptive error instead, which caching an empty solution would mask).
func requestKey(req Request) (cacheKey, bool) {
	if req.Options.Cache == nil || req.Chain == nil || req.Scheduler == nil ||
		CheckTypes(req.Scheduler, req.Chain, req.Resources) != nil {
		return cacheKey{}, false
	}
	return cacheKey{
		fp:       req.Chain.Fingerprint(),
		r:        req.Resources,
		strategy: req.Scheduler.Name(),
		colocate: req.Options.Colocate,
	}, true
}

// Cache is a concurrency-safe solution cache consulted by PlanBatch:
// requests whose (chain fingerprint, resources, strategy, options) key a
// previous batch sharing the cache solved reuse the stored schedule instead
// of re-solving it; every other request is solved and stored.
// Experiment sweeps that revisit identical (SR, platform) points are the
// intended workload.
//
// Every strategy is deterministic, so serving a solution from the cache is
// behavior-preserving: the Results of a cached batch are byte-identical to
// an uncached one (hits are resolved in request order, never by pool
// interleaving). Failures (empty solutions) are cached too. Keys collide
// only if two chains with different content share a 64-bit fingerprint
// (probability ~n²·2⁻⁶⁴ for n distinct chains; see core.Fingerprint).
//
// The zero value is not usable; call NewCache. A Cache may be shared by
// concurrent PlanBatch calls.
type Cache struct {
	mu sync.RWMutex
	m  map[cacheKey]core.Solution

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache returns an empty solution cache.
func NewCache() *Cache {
	return &Cache{m: map[cacheKey]core.Solution{}}
}

// get returns a copy of the cached solution for k.
func (c *Cache) get(k cacheKey) (core.Solution, bool) {
	c.mu.RLock()
	s, ok := c.m[k]
	c.mu.RUnlock()
	if !ok {
		return core.Solution{}, false
	}
	return cloneSolution(s), true
}

// put stores a copy of s under k.
func (c *Cache) put(k cacheKey, s core.Solution) {
	s = cloneSolution(s)
	c.mu.Lock()
	c.m[k] = s
	c.mu.Unlock()
}

// Stats returns the cumulative hit and miss counts across every batch
// that consulted the cache. A hit is a request an earlier batch solved;
// every other keyed request is a miss, in-batch duplicates included.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// cloneSolution deep-copies s so cached schedules and the Results built
// from them never share a Stages slice with the caller.
func cloneSolution(s core.Solution) core.Solution {
	if s.IsEmpty() {
		return core.Solution{}
	}
	return core.Solution{Stages: append([]core.Stage(nil), s.Stages...)}
}
