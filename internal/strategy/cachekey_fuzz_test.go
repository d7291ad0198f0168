package strategy

import (
	"math"
	"testing"

	"ampsched/internal/core"
)

// FuzzCacheKey pins that Options.Epsilon, accepted and ignored, never
// reaches the solution-cache key: any two values — zero, negative, NaN,
// infinite or tiny — share one key and one cache entry.
func FuzzCacheKey(f *testing.F) {
	f.Add(0.0, 0.0)
	f.Add(0.0, 0.05)
	f.Add(0.01, 0.05)
	f.Add(0.05, 0.05)
	f.Add(-1.0, 0.0)
	f.Add(math.NaN(), 0.0)
	f.Add(math.NaN(), math.NaN())
	f.Add(math.Inf(1), 0.0)
	f.Add(5e-324, 0.0)
	f.Fuzz(func(t *testing.T, e1, e2 float64) {
		cache := NewCache()
		req := func(eps float64) Request {
			return Request{
				Chain:     testChain(t),
				Resources: core.Res(2, 3),
				Scheduler: MustParse("herad"),
				Options:   Options{Cache: cache, Epsilon: eps},
			}
		}
		k1, ok1 := requestKey(req(e1))
		k2, ok2 := requestKey(req(e2))
		if !ok1 || !ok2 {
			t.Fatalf("well-formed requests did not key: %v %v", ok1, ok2)
		}
		if k1 != k2 {
			t.Fatalf("eps %v vs %v: keys differ", e1, e2)
		}
		cache.put(k1, core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 1}}})
		if _, hit := cache.get(k2); !hit {
			t.Fatalf("eps %v vs %v: no cache hit", e1, e2)
		}
	})
}
