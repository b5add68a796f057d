package search

import (
	"sort"

	"onchip/internal/area"
)

// Ranking order. Both strategies -- exhaustive enumeration and the
// pruned search -- sort their results with the same STRICT total order,
// which is what makes their top-K rankings byte-identical: two distinct
// allocations never compare equal, so the K best are uniquely
// determined no matter in which order the strategies discover them.
//
// The order is the paper's (ascending CPI, then ascending area)
// extended with a deterministic configuration tie-break. CPI and area
// ties between distinct allocations are real -- swapping the I- and
// D-cache organizations of a triple preserves total area and can
// preserve total CPI -- and an unstable sort without the tie-break
// would rank them by discovery order, which differs between strategies.

// lessAlloc is the canonical ranking order.
func lessAlloc(a, b Allocation) bool {
	if a.CPI != b.CPI {
		return a.CPI < b.CPI
	}
	if a.AreaRBE != b.AreaRBE {
		return a.AreaRBE < b.AreaRBE
	}
	if c := CmpTLBConfig(a.TLB, b.TLB); c != 0 {
		return c < 0
	}
	if c := CmpCacheConfig(a.ICache, b.ICache); c != 0 {
		return c < 0
	}
	return CmpCacheConfig(a.DCache, b.DCache) < 0
}

// sortAllocations sorts into the canonical ranking order. The sort is
// stable on top of a strict total order over distinct configurations,
// so equal-CPI equal-area allocations still rank deterministically.
func sortAllocations(out []Allocation) {
	sort.SliceStable(out, func(i, j int) bool { return lessAlloc(out[i], out[j]) })
}

// CmpTLBConfig orders TLB configurations by every field that
// distinguishes them, so any two distinct configurations compare
// unequal. FullyAssociative (0) deliberately sorts before any set
// associativity; the order only needs to be deterministic, not
// meaningful.
func CmpTLBConfig(a, b area.TLBConfig) int {
	if c := cmpInt(a.Entries, b.Entries); c != 0 {
		return c
	}
	if c := cmpInt(a.Assoc, b.Assoc); c != 0 {
		return c
	}
	if c := cmpInt(a.VABits, b.VABits); c != 0 {
		return c
	}
	if c := cmpInt(a.PageBits, b.PageBits); c != 0 {
		return c
	}
	if c := cmpInt(a.ASIDBits, b.ASIDBits); c != 0 {
		return c
	}
	return cmpInt(a.DataBits, b.DataBits)
}

// CmpCacheConfig is CmpTLBConfig for cache configurations.
func CmpCacheConfig(a, b area.CacheConfig) int {
	if c := cmpInt(a.CapacityBytes, b.CapacityBytes); c != 0 {
		return c
	}
	if c := cmpInt(a.LineWords, b.LineWords); c != 0 {
		return c
	}
	if c := cmpInt(a.Assoc, b.Assoc); c != 0 {
		return c
	}
	if c := cmpInt(a.AddressBits, b.AddressBits); c != 0 {
		return c
	}
	return cmpInt(a.StatusBits, b.StatusBits)
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
