package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/experiments"
	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/tapeworm"
	"onchip/internal/tlb"
	"onchip/internal/trace"
	"onchip/internal/vm"
	"onchip/internal/workload"
)

// Paper anchors (Nagle et al., ISCA 1994).
const (
	paperTable6BestCPI = 1.333 // Table 6, rank 1
	paperTable7BestCPI = 1.428 // Table 7, rank 1
	paperUltrixAvgCPI  = 1.94  // Table 4, Ultrix average
	paperMachAvgCPI    = 2.12  // Table 4, Mach average
)

// table6SweepRefs is the Table 6 experiment's default per-workload sweep
// scale, passed explicitly so the operation stays the same if the
// default moves.
const table6SweepRefs = 1_000_000

type table6Runner struct {
	refs  int // per-workload references
	check *table6Checker
}

func newTable6Runner(int64) runner {
	return &table6Runner{refs: table6SweepRefs, check: newTable6Checker(table6SweepRefs)}
}

func (r *table6Runner) op(t *opTimer) ([]string, float64, error) {
	return r.run(experiments.Options{}, t)
}

// run is op with the given options (the traced pass adds spans).
func (r *table6Runner) run(opt experiments.Options, t *opTimer) ([]string, float64, error) {
	opt.Refs = r.refs
	t.start()
	res, err := experiments.Run("table6", opt)
	t.stop()
	if err != nil {
		return nil, 0, err
	}
	out, err := parseAllocTable(res)
	if err != nil {
		return []string{err.Error()}, 0, nil
	}
	return r.check.check(out), relErr(out.rows[0].cpi, paperTable6BestCPI), nil
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

// allocRow is one printed row of an allocation table.
type allocRow struct {
	rank        int
	tlb, ic, dc string
	rbe         string // as printed, "%.0f"
	cpi         float64
	cpiText     string // as printed, "%.3f"
}

// allocTable is a parsed Table 6/7 result.
type allocTable struct {
	rows     []allocRow
	feasible int
}

var (
	cellSep      = regexp.MustCompile(`\s{2,}`)
	feasibleNote = regexp.MustCompile(`^(\d+) feasible allocations under the (\d+)-rbe budget$`)
)

// splitCells splits one rendered report row into its cells (columns are
// padded and separated by at least two spaces; no cell holds two).
func splitCells(line string) []string {
	return cellSep.Split(strings.TrimSpace(line), -1)
}

// parseAllocTable parses the ranked rows and the feasible-count note of
// an allocation experiment's result.
func parseAllocTable(res experiments.Result) (allocTable, error) {
	var t allocTable
	for _, line := range strings.Split(res.Text, "\n") {
		cells := splitCells(line)
		if len(cells) != 6 {
			continue
		}
		rank, err := strconv.Atoi(cells[0])
		if err != nil {
			continue // title, header or rule
		}
		cpi, err := strconv.ParseFloat(cells[5], 64)
		if err != nil {
			return t, fmt.Errorf("row %q: CPI: %v", line, err)
		}
		t.rows = append(t.rows, allocRow{rank: rank, tlb: cells[1], ic: cells[2], dc: cells[3],
			rbe: cells[4], cpi: cpi, cpiText: cells[5]})
	}
	if len(t.rows) == 0 {
		return t, fmt.Errorf("no ranked rows in %q", res.Text)
	}
	t.feasible = -1
	for _, n := range res.Notes {
		if m := feasibleNote.FindStringSubmatch(n); m != nil {
			t.feasible, _ = strconv.Atoi(m[1])
		}
	}
	if t.feasible < 0 {
		return t, fmt.Errorf("no feasible-count note in %q", res.Notes)
	}
	return t, nil
}

// table6Checker checks Table 6 outputs. The brute-force count and the
// rank-1 recomputation do not change between operations of one run, so
// they are computed once and kept.
type table6Checker struct {
	refs     int
	names    configNames
	feasible int
	rank1    map[[3]string]float64
}

func newTable6Checker(refs int) *table6Checker {
	big := search.Big()
	return &table6Checker{
		refs:     refs,
		names:    newConfigNames(big.TLBConfigs(), big.CacheConfigs()),
		feasible: -1,
		rank1:    map[[3]string]float64{},
	}
}

// check returns every way the table fails its checks.
func (c *table6Checker) check(t allocTable) []string {
	var bad []string
	badf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	const budget = area.BudgetRBE
	am := area.Default()
	if len(t.rows) < 10 {
		badf("%d ranked rows, want at least 10", len(t.rows))
	}
	for i, r := range t.rows {
		if i < 10 && r.rank != i+1 {
			badf("row %d has rank %d", i+1, r.rank)
		}
		if i > 0 && r.cpi < t.rows[i-1].cpi {
			badf("rank %d CPI %.3f below rank %d CPI %.3f", r.rank, r.cpi, t.rows[i-1].rank, t.rows[i-1].cpi)
		}
		tc, okT := c.names.tlb[r.tlb]
		ic, okI := c.names.cache[r.ic]
		dc, okD := c.names.cache[r.dc]
		if !okT || !okI || !okD {
			badf("rank %d names an unknown configuration: %q / %q / %q", r.rank, r.tlb, r.ic, r.dc)
			continue
		}
		rbe, err := strconv.ParseFloat(r.rbe, 64)
		if err != nil || rbe > budget {
			badf("rank %d total %s rbe is over the %d-rbe budget", r.rank, r.rbe, budget)
		}
		if want := fmt.Sprintf("%.0f", am.TotalArea(tc, ic, dc)); r.rbe != want {
			badf("rank %d total %s rbe, the area model prices its configurations at %s", r.rank, r.rbe, want)
		}
	}
	if n := len(t.rows); n > 10 {
		if want := t.feasible*3/4 + 1; t.rows[n-1].rank != want {
			badf("tail row has rank %d, want %d (three quarters of %d)", t.rows[n-1].rank, want, t.feasible)
		}
	}
	if c.feasible < 0 {
		c.feasible = feasibleCount(budget, 0)
	}
	if t.feasible != c.feasible {
		badf("note says %d feasible allocations, brute force counts %d", t.feasible, c.feasible)
	}
	if len(t.rows) > 0 {
		r := t.rows[0]
		tc, okT := c.names.tlb[r.tlb]
		ic, okI := c.names.cache[r.ic]
		dc, okD := c.names.cache[r.dc]
		if okT && okI && okD {
			key := [3]string{r.tlb, r.ic, r.dc}
			want, ok := c.rank1[key]
			if !ok {
				want = directCPI(osmodel.Mach, workload.All(), c.refs, tc, ic, dc)
				c.rank1[key] = want
			}
			if got := fmt.Sprintf("%.3f", want); got != r.cpiText {
				badf("rank 1 CPI %s, direct simulation of its configurations gives %s", r.cpiText, got)
			}
		}
	}
	return bad
}

// directCPI recomputes one allocation's Table 6 CPI, 1 + TLB + I + D,
// apart from the sweep engine and the search: the I- and D-cache terms
// from a direct simulation of just those two caches (cache.Cache, the
// D side write-through without write allocation) over the same streams
// the sweep consumes, and the TLB term from a Tapeworm replay of every
// Table 5 TLB driven by an R2000 TLB.
func directCPI(v osmodel.Variant, specs []osmodel.WorkloadSpec, refsEach int, tc area.TLBConfig, ic, dc area.CacheConfig) float64 {
	var instrs, iMiss, dMiss, tlbCycles uint64
	tlbs := table5TLBs()
	var cfgs []tlb.Config
	idx := -1
	for i, t := range tlbs {
		cfgs = append(cfgs, tlb.Config{TLBConfig: t})
		if t == tc {
			idx = i
		}
	}
	for _, spec := range specs {
		s := genSweepStream(v, spec, refsEach)
		icache := cache.New(cache.Config{CacheConfig: ic})
		dcache := cache.New(cache.Config{CacheConfig: dc})
		for _, r := range s.refs[:s.cacheEnd] {
			key := vm.CacheKey(r.Addr, r.ASID)
			switch {
			case r.Kind == trace.IFetch:
				instrs++
				if !icache.Access(key, false) {
					iMiss++
				}
			case vm.SegmentOf(r.Addr) != vm.Kseg1:
				if !dcache.Access(key, r.Kind == trace.Store) && r.Kind == trace.Load {
					dMiss++
				}
			}
		}
		if idx < 0 {
			continue
		}
		hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
		tw := tapeworm.Attach(hw, cfgs...)
		for i, r := range s.refs {
			if i == s.warmEnd {
				hw.ResetService()
				tw.ResetServices()
			}
			hw.Translate(r.Addr, r.ASID)
		}
		sv := tw.Results()[idx].Service
		tlbCycles += sv.Cycles[tlb.UserMiss] + sv.Cycles[tlb.KernelMiss]
	}
	if idx < 0 {
		return math.NaN()
	}
	n := float64(instrs)
	tlbCPI := float64(tlbCycles) / n
	iCPI := float64(iMiss) * float64(cache.MissPenalty(ic.LineWords)) / n
	dCPI := float64(dMiss) * float64(cache.MissPenalty(dc.LineWords)) / n
	return 1 + tlbCPI + iCPI + dCPI
}
