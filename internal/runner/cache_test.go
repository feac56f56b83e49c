package runner

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// memCache is an in-memory runner.Cache for pool-level tests.
type memCache struct {
	mu      sync.Mutex
	data    map[string]Result
	stores  int
	lookups int
}

func newMemCache() *memCache { return &memCache{data: map[string]Result{}} }

func (c *memCache) Lookup(s Spec) (Result, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	r, ok := c.data[s.Key]
	return r, ok, nil
}

func (c *memCache) Store(s Spec, r Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	c.data[s.Key] = r
	return nil
}

// TestPoolCacheWriteThroughAndResume: the first sweep executes everything
// and feeds the cache; a second pool with Resume serves every cell from it,
// bit-identical, with Cached reflecting the hit.
func TestPoolCacheWriteThroughAndResume(t *testing.T) {
	specs := smallSweep().Specs()
	cache := newMemCache()

	cold := Pool{Workers: 2, Cache: cache}
	first, err := cold.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if cache.stores != len(specs) {
		t.Fatalf("cache received %d stores, want %d", cache.stores, len(specs))
	}
	for _, r := range first {
		if r.Cached {
			t.Fatalf("cold run %s: Cached=true, want fresh execution", r.Key)
		}
	}

	warm := Pool{Workers: 2, Cache: cache, Resume: true}
	second, err := warm.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if cache.stores != len(specs) {
		t.Fatalf("resume re-stored cells: %d stores after warm run", cache.stores)
	}
	for i, r := range second {
		if !r.Cached || r.Wall != 0 {
			t.Errorf("warm run %s: Cached=%v Wall=%v, want cache hit", r.Key, r.Cached, r.Wall)
		}
		if !reflect.DeepEqual(r.TCP, first[i].TCP) {
			t.Errorf("warm run %s: result differs from cold run", r.Key)
		}
	}
}

// failingCache always errors; the sweep must still complete every run and
// surface the first cache error afterwards.
type failingCache struct{}

func (failingCache) Lookup(Spec) (Result, bool, error) { return Result{}, false, nil }
func (failingCache) Store(Spec, Result) error          { return errors.New("disk full") }

func TestCacheFailureDoesNotSinkSweep(t *testing.T) {
	specs := smallSweep().Specs()[:2]
	pool := Pool{Workers: 2, Cache: failingCache{}}
	res, err := pool.Run(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("expected the cache error surfaced, got %v", err)
	}
	for _, r := range res {
		if r.Err != nil || r.TCP == nil {
			t.Errorf("run %s did not complete despite cache failure: %v", r.Key, r.Err)
		}
	}
}
