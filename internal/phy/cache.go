package phy

import "math"

// cacheEntry is one slot of the error memo: a chunk-error computation's key
// packed into two words, and its result. Experiments hit a tiny set of
// keys — subframe sizes, rates and airtime offsets repeat from aggregate to
// aggregate — so an exact-key memo turns the per-span Erfc/Expm1/Log1p chain
// into one probe. k0 is never zero for a stored key, so a zero k0 marks an
// empty slot.
type cacheEntry struct {
	k0 uint64  // nBytes<<40 | rate<<32 | endSample
	k1 uint64  // math.Float64bits(snrShift)
	p  float64 // the memoized probability
}

// ErrorCache memoizes ChunkErrorProb for one fixed Params. The cached values
// are the exact float64 results of the uncached computation (same operations
// in the same order), so wiring a cache in cannot change a single RNG
// comparison — the byte-identical-output guarantee of the golden tests.
//
// The memo is an open-addressed, linearly probed table of 24-byte entries
// kept at most three quarters full, indexed by a multiplicative hash of the
// key words. Entries stay small because a mobile mesh, whose per-link SNR
// shifts vary with distance, fills ~27k keys. Shifts are keyed by their
// bits, so +0 and -0 occupy separate entries holding the same value.
//
// The cache is not safe for concurrent use; each simulation run owns its
// own (the parallel runner gives every run a private Medium).
type ErrorCache struct {
	params Params
	slots  []cacheEntry // length is a power of two
	shift  uint         // 64 - log2(len(slots)): the hash's index bits
	n      int          // occupied slots
}

// NewErrorCache returns an empty cache bound to p.
func NewErrorCache(p Params) *ErrorCache {
	return &ErrorCache{params: p, slots: make([]cacheEntry, 64), shift: 64 - 6}
}

// slot returns the index of key's entry, or of the empty slot where it
// belongs.
func (c *ErrorCache) slot(k0, k1 uint64) int {
	h := (k0*0x9e3779b97f4a7c15 ^ k1) * 0xbf58476d1ce4e5b9
	mask := len(c.slots) - 1
	for i := int(h >> c.shift); ; i = (i + 1) & mask {
		if e := &c.slots[i]; e.k0 == 0 || e.k0 == k0 && e.k1 == k1 {
			return i
		}
	}
}

// ChunkErrorProb returns Params.ChunkErrorProb for the cache's params with
// SNRdB shifted by snrShift (the per-link adjustment), memoized.
func (c *ErrorCache) ChunkErrorProb(nBytes int, r Rate, endSample int64, snrShift float64) float64 {
	k0 := uint64(nBytes)<<40 | uint64(r)<<32 | uint64(endSample)
	if k0 == 0 || uint64(nBytes) >= 1<<24 || uint64(r) > 0xff || uint64(endSample) >= 1<<32 {
		// Not representable in the packed key: compute, don't memoize.
		return c.compute(nBytes, r, endSample, snrShift)
	}
	k1 := math.Float64bits(snrShift)
	i := c.slot(k0, k1)
	if e := &c.slots[i]; e.k0 != 0 {
		return e.p
	}
	p := c.compute(nBytes, r, endSample, snrShift)
	if 4*(c.n+1) > 3*len(c.slots) {
		c.grow()
		i = c.slot(k0, k1)
	}
	c.slots[i] = cacheEntry{k0: k0, k1: k1, p: p}
	c.n++
	return p
}

// compute is the uncached chunk-error probability for the shifted params.
func (c *ErrorCache) compute(nBytes int, r Rate, endSample int64, snrShift float64) float64 {
	params := c.params
	if snrShift != 0 {
		params.SNRdB += snrShift
	}
	return params.ChunkErrorProb(nBytes, r, endSample)
}

// grow doubles the table and reinserts every entry.
func (c *ErrorCache) grow() {
	old := c.slots
	c.slots = make([]cacheEntry, 2*len(old))
	c.shift--
	for _, e := range old {
		if e.k0 != 0 {
			c.slots[c.slot(e.k0, e.k1)] = e
		}
	}
}

// Len reports how many distinct keys the cache has seen (observability for
// tests and profiling).
func (c *ErrorCache) Len() int { return c.n }
