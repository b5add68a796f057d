package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"onchip/internal/experiments"
	"onchip/internal/osmodel"
	"onchip/internal/trace"
	"onchip/internal/vm"
	"onchip/internal/workload"
)

// table4Refs is the per-run scale of the Table 4 experiment's default,
// passed explicitly so the operation stays the same if the default moves.
const table4Refs = 2_000_000

type table4Runner struct {
	refs  int
	check *table4Checker
}

func newTable4Runner(int64) runner {
	return &table4Runner{refs: table4Refs, check: newTable4Checker(table4Refs)}
}

func (r *table4Runner) op(t *opTimer) ([]string, float64, error) {
	t.start()
	res, err := experiments.Run("table4", experiments.Options{Refs: r.refs})
	t.stop()
	if err != nil {
		return nil, 0, err
	}
	rows, err := parseTable4(res.Text)
	if err != nil {
		return []string{err.Error()}, 0, nil
	}
	bad := r.check.check(rows)
	var e float64
	for _, row := range rows {
		switch {
		case row.workload == "Average" && row.os == "Ultrix":
			e += relErr(row.cpi, paperUltrixAvgCPI) / 2
		case row.workload == "Average" && row.os == "Mach":
			e += relErr(row.cpi, paperMachAvgCPI) / 2
		}
	}
	return bad, e, nil
}

// Table 4 component columns, in printed order.
const (
	colTLB = iota
	colICache
	colDCache
	colWB
	colOther
	nCols
)

// table4Row is one printed row: CPI and the five stall components.
type table4Row struct {
	workload, os string
	cpi          float64
	comp         [nCols]float64
	compText     [nCols]string // the component value as printed, "%.2f"
}

// parseTable4 parses the rows of the Table 4 experiment's text.
func parseTable4(text string) ([]table4Row, error) {
	var rows []table4Row
	for _, line := range strings.Split(text, "\n") {
		cells := splitCells(line)
		if len(cells) != 8 || (cells[1] != "Ultrix" && cells[1] != "Mach") {
			continue
		}
		row := table4Row{workload: cells[0], os: cells[1]}
		var err error
		if row.cpi, err = strconv.ParseFloat(cells[2], 64); err != nil {
			return nil, fmt.Errorf("row %q: CPI: %v", line, err)
		}
		for c := 0; c < nCols; c++ {
			// A component prints as "0.28 (23%)".
			v, _, _ := strings.Cut(cells[3+c], " ")
			row.compText[c] = v
			if row.comp[c], err = strconv.ParseFloat(v, 64); err != nil {
				return nil, fmt.Errorf("row %q: column %d: %v", line, 3+c, err)
			}
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no rows in %q", text)
	}
	return rows, nil
}

// table4Checker checks Table 4 outputs against its own model of the
// DECstation 3100's caches, computed once per run.
type table4Checker struct {
	refs int
	// want holds the I- and D-cache columns per "workload/OS".
	want map[string][2]string
}

func newTable4Checker(refs int) *table4Checker { return &table4Checker{refs: refs} }

// check returns every way the rows fail their checks. Printed values
// carry two decimals, so a sum of k printed values may be off by
// k*0.005 from the printed total.
func (c *table4Checker) check(rows []table4Row) []string {
	var bad []string
	badf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if c.want == nil {
		c.want = dsCacheColumns(c.refs)
	}
	const half = 0.005 + 1e-9
	byOS := map[string][]table4Row{}
	seen := 0
	for _, r := range rows {
		sum := 1.0
		for _, v := range r.comp {
			sum += v
		}
		if math.Abs(sum-r.cpi) > 6*half {
			badf("%s/%s: CPI %.2f, but 1 + components = %.2f", r.workload, r.os, r.cpi, sum)
		}
		if r.workload == "Average" {
			six := byOS[r.os]
			if len(six) != 6 {
				badf("%s average over %d rows, want 6", r.os, len(six))
				continue
			}
			mean := func(get func(table4Row) float64) float64 {
				s := 0.0
				for _, x := range six {
					s += get(x)
				}
				return s / 6
			}
			if m := mean(func(x table4Row) float64 { return x.cpi }); math.Abs(m-r.cpi) > 2*half {
				badf("%s average CPI %.2f, mean of its rows %.4f", r.os, r.cpi, m)
			}
			for col := 0; col < nCols; col++ {
				if m := mean(func(x table4Row) float64 { return x.comp[col] }); math.Abs(m-r.comp[col]) > 2*half {
					badf("%s average column %d is %.2f, mean of its rows %.4f", r.os, col, r.comp[col], m)
				}
			}
			continue
		}
		byOS[r.os] = append(byOS[r.os], r)
		want, ok := c.want[r.workload+"/"+r.os]
		if !ok {
			badf("unexpected row %s/%s", r.workload, r.os)
			continue
		}
		seen++
		if r.compText[colICache] != want[0] {
			badf("%s/%s: I-cache %s, a 64-KB direct-mapped one-word-line model gives %s",
				r.workload, r.os, r.compText[colICache], want[0])
		}
		if r.compText[colDCache] != want[1] {
			badf("%s/%s: D-cache %s, a 64-KB direct-mapped one-word-line model gives %s",
				r.workload, r.os, r.compText[colDCache], want[1])
		}
	}
	if seen != len(c.want) {
		badf("%d workload rows, want %d", seen, len(c.want))
	}
	return bad
}

// DECstation 3100 memory timing the Table 4 model charges: every
// primary-cache miss of a one-word line, and every uncached load, stalls
// for six cycles.
const (
	dsMissCycles     = 6
	dsUncachedCycles = 6
	dsCacheLines     = 64 << 10 / 4 // 64 KB of one-word lines
)

// dmCache is a direct-mapped cache of one-word lines over physical
// cache keys (vm.CacheKey).
type dmCache struct{ tag [dsCacheLines]uint64 }

// access reports whether the word at key hits, then installs it.
func (c *dmCache) access(key uint64) bool {
	block := key >> 2
	i := block % dsCacheLines
	if c.tag[i] == block+1 { // 0 marks an empty line
		return true
	}
	c.tag[i] = block + 1
	return false
}

// dsCacheColumns computes the Table 4 I- and D-cache columns of every
// workload under both operating systems, printed as Table 4 prints them,
// from each run's generated stream: I-cache stalls are instruction
// misses times six over instructions; D-cache stalls are load misses
// (stores allocate, one-word lines need no fill) plus uncached loads,
// times six, over instructions.
func dsCacheColumns(refs int) map[string][2]string {
	out := map[string][2]string{}
	for _, v := range []osmodel.Variant{osmodel.Ultrix, osmodel.Mach} {
		for _, spec := range workload.All() {
			var ic, dc dmCache
			var instrs, iMiss, dStall uint64
			sink := trace.SinkFunc(func(r trace.Ref) {
				key := vm.CacheKey(r.Addr, r.ASID)
				switch {
				case r.Kind == trace.IFetch:
					instrs++
					if !ic.access(key) {
						iMiss++
					}
				case vm.SegmentOf(r.Addr) == vm.Kseg1:
					if r.Kind == trace.Load {
						dStall += dsUncachedCycles
					}
				default:
					if !dc.access(key) && r.Kind == trace.Load {
						dStall += dsMissCycles
					}
				}
			})
			osmodel.NewSystem(v, spec).Generate(refs, sink)
			n := float64(instrs)
			out[spec.Name+"/"+v.String()] = [2]string{
				fmt.Sprintf("%.2f", float64(iMiss*dsMissCycles)/n),
				fmt.Sprintf("%.2f", float64(dStall)/n),
			}
		}
	}
	return out
}
