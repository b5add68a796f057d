package main

import (
	"onchip/internal/area"
	"onchip/internal/osmodel"
	"onchip/internal/trace"
)

// collector stores a generated stream. It takes the generator's
// batches, so the stream it sees is the one the program's batched
// sweep sinks see.
type collector struct{ refs []trace.Ref }

func (c *collector) Ref(r trace.Ref)     { c.refs = append(c.refs, r) }
func (c *collector) Refs(rs []trace.Ref) { c.refs = append(c.refs, rs...) }

// discard is a batch sink that drops the stream: emission cost alone.
type discard struct{}

func (discard) Ref(trace.Ref)    {}
func (discard) Refs([]trace.Ref) {}

// sweepStream is one workload's stream as the allocation sweep consumes
// it. The cache sweeps see refs[:cacheEnd]; Tapeworm warms up on
// refs[:warmEnd], resets its counters, and measures refs[warmEnd:].
type sweepStream struct {
	refs              []trace.Ref
	warmEnd, cacheEnd int
}

// sweepPhases runs the allocation sweep's three generation calls for
// refsEach references into sink and returns the two window boundaries.
// Generate stops at the first iteration boundary at or past its
// cumulative target, so these calls cut the stream where the sweep
// does: warm-up to refsEach/3, the cache window to refsEach, and a
// Tapeworm-only tail of refsEach references past the warm-up.
func sweepPhases(sys *osmodel.System, refsEach int, sink trace.Sink) (warmEnd, cacheEnd int) {
	warmEnd = sys.Generate(refsEach/3, sink)
	cacheEnd = warmEnd
	if refsEach > cacheEnd {
		cacheEnd += sys.Generate(refsEach-cacheEnd, sink)
	}
	if n := warmEnd + refsEach - cacheEnd; n > 0 {
		sys.Generate(n, sink)
	}
	return warmEnd, cacheEnd
}

// genSweepStream generates and stores one workload's sweep stream.
func genSweepStream(v osmodel.Variant, spec osmodel.WorkloadSpec, refsEach int) sweepStream {
	c := &collector{refs: make([]trace.Ref, 0, refsEach+refsEach/2)}
	warmEnd, cacheEnd := sweepPhases(osmodel.NewSystem(v, spec), refsEach, c)
	return sweepStream{refs: c.refs, warmEnd: warmEnd, cacheEnd: cacheEnd}
}

// The paper's Table 5 axes, written out here rather than taken from the
// search package, so the brute-force counts price a space built apart
// from the one the search enumerates.
var (
	table5TLBEntries = []int{64, 128, 256, 512}
	table5TLBAssocs  = []int{1, 2, 4, 8}
	table5TLBFA      = []int{64}
	table5CacheSizes = []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	table5CacheWays  = []int{1, 2, 4, 8}
	table5CacheLines = []int{1, 2, 4, 8, 16, 32}
)

// table5TLBs lists the Table 5 TLB organizations in the order the
// allocation sweep attaches them to Tapeworm.
func table5TLBs() []area.TLBConfig {
	var out []area.TLBConfig
	for _, e := range table5TLBEntries {
		for _, a := range table5TLBAssocs {
			if a <= e {
				out = append(out, area.TLBConfig{Entries: e, Assoc: a})
			}
		}
	}
	for _, e := range table5TLBFA {
		out = append(out, area.TLBConfig{Entries: e, Assoc: area.FullyAssociative})
	}
	return out
}

// table5Caches lists the valid Table 5 cache organizations with at most
// maxAssoc ways (0: any).
func table5Caches(maxAssoc int) []area.CacheConfig {
	var out []area.CacheConfig
	for _, size := range table5CacheSizes {
		for _, a := range table5CacheWays {
			if maxAssoc > 0 && a > maxAssoc {
				continue
			}
			for _, l := range table5CacheLines {
				c := area.CacheConfig{CapacityBytes: size, LineWords: l, Assoc: a}
				if c.Validate() == nil {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// feasibleCount prices every Table 5 triple (caches capped at maxAssoc
// ways) with the area model and counts those within budget.
func feasibleCount(budget float64, maxAssoc int) int {
	am := area.Default()
	caches := table5Caches(maxAssoc)
	n := 0
	for _, t := range table5TLBs() {
		for _, ic := range caches {
			for _, dc := range caches {
				if am.TotalArea(t, ic, dc) <= budget {
					n++
				}
			}
		}
	}
	return n
}

// configNames maps printed configuration names back to configurations,
// over every organization the big design space offers (a superset of
// Table 5).
type configNames struct {
	tlb   map[string]area.TLBConfig
	cache map[string]area.CacheConfig
}

func newConfigNames(tlbs []area.TLBConfig, caches []area.CacheConfig) configNames {
	n := configNames{tlb: map[string]area.TLBConfig{}, cache: map[string]area.CacheConfig{}}
	for _, t := range tlbs {
		n.tlb[t.String()] = t
	}
	for _, c := range caches {
		n.cache[c.String()] = c
	}
	return n
}
