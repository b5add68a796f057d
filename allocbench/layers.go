package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/cheetah"
	"onchip/internal/experiments"
	"onchip/internal/machine"
	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/search/missmodel"
	"onchip/internal/spans"
	"onchip/internal/tapeworm"
	"onchip/internal/tlb"
	"onchip/internal/trace"
	"onchip/internal/vm"
	"onchip/internal/workload"
)

// clock is one layer's busy time and the work it did in that time.
type clock struct {
	sec float64
	n   uint64
}

func (c clock) nsPer() float64 { return 1e9 * c.sec / float64(c.n) }

// replayer times the layers' public calls one at a time, serially, on
// the streams a workload's operation generates. Each call is bracketed
// by a span on the replayer's lane.
type replayer struct {
	lane *spans.Lane

	emit, icache, dcache, tw, mach clock
	// searchSec sums every search the replayed operation makes.
	searchSec float64
	// The search rows: the Table 6 setting's exhaustive search and the
	// big space's pruned search at 250k rbe, any associativity.
	exhaustiveSec, exhaustiveMB float64
	prunedSec                   float64
	prunedPriced                int
}

// timed runs f as one call of a layer, adding its time to c and n units
// of work.
func (p *replayer) timed(name string, c *clock, n int, f func()) {
	sp := p.lane.Start(name)
	start := time.Now()
	f()
	c.sec += time.Since(start).Seconds()
	sp.End()
	c.n += uint64(n)
}

// opSeconds is the replayed operation's layer time.
func (p *replayer) opSeconds() float64 {
	return p.emit.sec + p.icache.sec + p.dcache.sec + p.tw.sec + p.mach.sec + p.searchSec
}

// batchCollector stores a stream with the generator's batch cuts.
type batchCollector struct {
	collector
	cuts []int // stream offsets where each delivered batch ends
}

func (c *batchCollector) Refs(rs []trace.Ref) {
	c.collector.Refs(rs)
	c.cuts = append(c.cuts, len(c.refs))
}

// sweep replays one model-building sweep over the cache grid, as the
// program's fused sweep engine runs it: per workload, emission into a
// discarding batch sink, then the stored stream, translated batch by
// batch as the engine translates it, through the I-stream stack
// simulators, the D-stream stack simulators, and the R2000 TLB with
// Tapeworm on every Table 5 TLB. It returns the measured model those
// simulators give, built as the program builds it.
func (p *replayer) sweep(v osmodel.Variant, refsEach int, caches []area.CacheConfig) *search.Measured {
	tlbs := table5TLBs()
	var cfgs []tlb.Config
	for _, t := range tlbs {
		cfgs = append(cfgs, tlb.Config{TLBConfig: t})
	}
	iMiss := map[area.CacheConfig]uint64{}
	dMiss := map[area.CacheConfig]uint64{}
	tlbCycles := map[area.TLBConfig]uint64{}
	var instrs uint64
	for _, spec := range workload.All() {
		c := &batchCollector{}
		sys := osmodel.NewSystem(v, spec)
		warmEnd, cacheEnd := sweepPhases(sys, refsEach, c)
		p.timed("osmodel.System.Generate", &p.emit, len(c.refs), func() {
			sweepPhases(osmodel.NewSystem(v, spec), refsEach, discard{})
		})

		var ikeys, dkeys [][]uint64
		var ni, nd int
		from := 0
		for _, to := range c.cuts {
			if to > cacheEnd {
				break
			}
			var ib, db []uint64
			for _, r := range c.refs[from:to] {
				if r.Kind == trace.IFetch {
					ib = append(ib, vm.CacheKey(r.Addr, r.ASID))
				} else if vm.SegmentOf(r.Addr) != vm.Kseg1 {
					db = append(db, cheetah.PackRef(vm.CacheKey(r.Addr, r.ASID), r.Kind == trace.Store))
				}
			}
			ikeys, dkeys = append(ikeys, ib), append(dkeys, db)
			ni, nd = ni+len(ib), nd+len(db)
			from = to
		}
		instrs += uint64(ni)

		isw := cheetah.NewSweep(caches, 8)
		p.timed("cheetah.Sweep.AccessKeys", &p.icache, ni, func() {
			for _, b := range ikeys {
				isw.AccessKeys(b)
			}
		})
		dsw := cheetah.NewDataSweep(caches)
		p.timed("cheetah.DataSweep.AccessPacked", &p.dcache, nd, func() {
			for _, b := range dkeys {
				dsw.AccessPacked(b)
			}
		})
		hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
		tw := tapeworm.Attach(hw, cfgs...)
		p.timed("tlb.Managed.Translate+tapeworm", &p.tw, len(c.refs), func() {
			for _, r := range c.refs[:warmEnd] {
				hw.Translate(r.Addr, r.ASID)
			}
			hw.ResetService()
			tw.ResetServices()
			for _, r := range c.refs[warmEnd:] {
				hw.Translate(r.Addr, r.ASID)
			}
		})
		for _, cfg := range caches {
			iMiss[cfg] += isw.Misses(cfg)
			dMiss[cfg] += dsw.ReadMisses(cfg)
		}
		for i, res := range tw.Results() {
			tlbCycles[tlbs[i]] += res.Service.Cycles[tlb.UserMiss] + res.Service.Cycles[tlb.KernelMiss]
		}
	}
	m := search.NewMeasured(1)
	n := float64(instrs)
	for _, c := range caches {
		m.IC[c] = float64(iMiss[c]) * float64(cache.MissPenalty(c.LineWords)) / n
		m.DC[c] = float64(dMiss[c]) * float64(cache.MissPenalty(c.LineWords)) / n
	}
	for _, t := range tlbs {
		m.TLB[t] = float64(tlbCycles[t]) / n
	}
	return m
}

// enumerate times one search.EnumerateE call and the bytes it allocated.
func (p *replayer) enumerate(name string, space search.Space, budget float64, pm search.PerfModel, opts ...search.Option) (sec, mb float64, err error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	sp := p.lane.Start(name)
	start := time.Now()
	_, err = search.EnumerateE(space, area.Default(), budget, pm, opts...)
	sec = time.Since(start).Seconds()
	sp.End()
	runtime.ReadMemStats(&ms)
	return sec, float64(ms.TotalAlloc-alloc0) / 1e6, err
}

// pruned times the pruned top-10 search of the big space on the power-
// law extension of m.
func (p *replayer) pruned(m *search.Measured, budget float64, maxAssoc int) (sec float64, priced int, err error) {
	space := search.Big()
	space.MaxCacheAssoc = maxAssoc
	var st search.PruneStats
	ext := missmodel.FromMeasured(m)
	sec, _, err = p.enumerate("search.EnumerateE(big, pruned)", space, budget, ext,
		search.WithPruning(10), search.WithPruneStats(&st))
	return sec, st.Priced, err
}

// table6 replays one Table 6 operation (the Mach sweep at 1M references
// per workload and the exhaustive Table 5 search at 250k rbe), then
// prices the big space's pruned search on the same model.
func (p *replayer) table6() error {
	m := p.sweep(osmodel.Mach, table6SweepRefs, search.Table5().CacheConfigs())
	sec, mb, err := p.enumerate("search.EnumerateE(table5)", search.Table5(), area.BudgetRBE, m)
	if err != nil {
		return err
	}
	p.exhaustiveSec, p.exhaustiveMB = sec, mb
	p.searchSec += sec
	p.prunedSec, p.prunedPriced, err = p.pruned(m, area.BudgetRBE, 0)
	return err
}

// table4 replays one Table 4 operation: every workload under both
// operating systems, emission into a discarding batch sink, then the
// stored stream through the DECstation 3100 timing machine.
func (p *replayer) table4() {
	for _, v := range []osmodel.Variant{osmodel.Ultrix, osmodel.Mach} {
		for _, spec := range workload.All() {
			c := &collector{}
			osmodel.NewSystem(v, spec).Generate(table4Refs, c)
			p.timed("osmodel.System.Generate", &p.emit, len(c.refs), func() {
				osmodel.NewSystem(v, spec).Generate(table4Refs, discard{})
			})
			cfg := machine.DECstation3100()
			cfg.OtherCPI = spec.OtherCPI
			cfg.IsServerASID = osmodel.IsServerASID
			m := machine.New(cfg)
			p.timed("machine.Machine.Ref", &p.mach, len(c.refs), func() {
				for _, r := range c.refs {
					m.Ref(r)
				}
			})
		}
	}
}

// advise replays the computed requests of one advise pass: each one's
// sweep over its grid, then its search -- exhaustive on Table 5, pruned
// on the big space's extension.
func (p *replayer) advise(seq adviseSeq) error {
	for _, q := range seq.distinct {
		v := osmodel.Mach
		if q.OS == "Ultrix" {
			v = osmodel.Ultrix
		}
		grid := search.Table5()
		grid.MaxCacheAssoc = q.MaxCacheAssoc
		m := p.sweep(v, q.Refs, grid.CacheConfigs())
		if q.Space == "big" {
			sec, priced, err := p.pruned(m, q.BudgetRBE, q.MaxCacheAssoc)
			if err != nil {
				return err
			}
			p.searchSec += sec
			if q.BudgetRBE == area.BudgetRBE && q.MaxCacheAssoc == 0 {
				p.prunedSec, p.prunedPriced = sec, priced
			}
			continue
		}
		sec, mb, err := p.enumerate("search.EnumerateE(table5)", grid, q.BudgetRBE, m)
		if err != nil {
			return err
		}
		p.searchSec += sec
		if v == osmodel.Mach && q.BudgetRBE == area.BudgetRBE && q.MaxCacheAssoc == 0 {
			p.exhaustiveSec, p.exhaustiveMB = sec, mb
		}
	}
	return nil
}

// table6Spans holds what the traced pass reads from whole Table 6
// operations: two untraced and two traced, in the order untraced,
// traced, traced, untraced, so drift over the run cancels out of the
// tracing overhead.
type table6Spans struct {
	plainWall, plainCPU, tracedWall []float64
	modelS, searchS, busyFrac       []float64
	last                            *spans.Tracer // the last traced operation's spans
}

func runTable6Spans(seed int64, ops *spans.Lane, t *tally) (*table6Spans, error) {
	r := newTable6Runner(seed).(*table6Runner)
	st := &table6Spans{}
	for i, traced := range []bool{false, true, true, false} {
		runtime.GC()
		var opt experiments.Options
		if traced {
			st.last = spans.New(0)
			opt.Spans = st.last
		}
		sp := ops.Start(fmt.Sprintf("experiments.Run(table6) traced=%t", traced))
		var ot opTimer
		bad, _, err := r.run(opt, &ot)
		sp.End()
		t.record(fmt.Sprintf("table6 op %d", i+1), err, bad)
		if err != nil {
			continue
		}
		if !traced {
			st.plainWall, st.plainCPU = append(st.plainWall, ot.wall), append(st.plainCPU, ot.cpu)
			continue
		}
		st.tracedWall = append(st.tracedWall, ot.wall)
		sum := st.last.Summarize()
		var busy, wall float64
		for _, l := range sum.Lanes {
			if l.Worker && strings.HasPrefix(l.Name, "sweep.worker.") {
				busy, wall = busy+l.BusySeconds, wall+l.WallSeconds
			}
		}
		st.busyFrac = append(st.busyFrac, busy/wall)
		for _, ph := range sum.Phases {
			switch ph.Name {
			case "sweep.model":
				st.modelS = append(st.modelS, ph.TotalSeconds)
			case "search.enumerate":
				st.searchS = append(st.searchS, ph.TotalSeconds)
			}
		}
	}
	fmt.Fprintf(t.log, "# table6 wall untraced %v traced %v\n", st.plainWall, st.tracedWall)
	if len(st.plainWall) == 0 || len(st.tracedWall) == 0 {
		return nil, fmt.Errorf("no Table 6 operation of the traced pass completed")
	}
	return st, nil
}

// tracedRun is the traced pass. It times every layer's public calls in
// isolation on the streams of the workload's own operation, then runs
// that operation untraced for its CPU time: the share of it the
// isolated layers account for. A layer the workload does not run is
// timed on the operation of the workload that does (Table 6 for the
// sweep layers and searches, Table 4 for the timing machine, an advise
// pass for the advisor). It also runs traced and untraced Table 6
// operations for the program's own spans. Spans of the benchmark's
// calls are written to file as a Chrome trace.
func tracedRun(name string, seed int64, file string, t *tally) (map[string]metric, error) {
	tr := spans.New(0)
	own := &replayer{lane: tr.Lane("layers." + name)}
	home := &replayer{lane: tr.Lane("layers.home")}
	ops := tr.Lane("ops")
	ar := &adviseRunner{seq: newAdviseSeq(seed, adviseRefs), check: newAdviseChecker(), lane: tr.Lane("client")}
	var passTimer opTimer
	pass := func() error {
		bad, _, err := ar.op(&passTimer)
		t.record("advise pass", err, bad)
		return err
	}

	// The workload's own replay runs right before its own operation, so
	// the two see the machine at the same speed. sweeps and machine are
	// the replays the sweep-layer and search rows and the machine row
	// come from.
	var t6 *table6Spans
	var ownCPU float64
	sweeps, mach := own, home
	var err error
	switch name {
	case "table6":
		if err = own.table6(); err != nil {
			return nil, err
		}
		if t6, err = runTable6Spans(seed, ops, t); err != nil {
			return nil, err
		}
		ownCPU = median(t6.plainCPU)
		home.table4()
		err = pass()
	case "table4":
		own.table4()
		var ot opTimer
		bad, _, opErr := newTable4Runner(seed).op(&ot)
		t.record("table4 op", opErr, bad)
		if opErr != nil {
			return nil, opErr
		}
		ownCPU = ot.cpu
		sweeps, mach = home, own
		if err = home.table6(); err == nil {
			err = pass()
		}
	case "advise":
		if err = own.advise(ar.seq); err == nil {
			err = pass()
		}
		ownCPU = passTimer.cpu
		home.table4()
	}
	if err != nil {
		return nil, err
	}
	if t6 == nil {
		if t6, err = runTable6Spans(seed, ops, t); err != nil {
			return nil, err
		}
	}

	var computed, hits []float64
	for _, e := range ar.last {
		switch e.source {
		case "cache":
			hits = append(hits, e.latency.Seconds())
		default:
			computed = append(computed, e.latency.Seconds())
		}
	}

	fmt.Fprintf(t.log, "# %s layer seconds: emit %.3f icache %.3f dcache %.3f tapeworm %.3f machine %.3f search %.3f; operation cpu %.3f\n",
		name, own.emit.sec, own.icache.sec, own.dcache.sec, own.tw.sec, own.mach.sec, own.searchSec, ownCPU)
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return nil, err
	}
	if err := spans.WriteFile(file, tr); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	if err := spans.WriteFile(strings.TrimSuffix(file, ".json")+"-table6-spans.json", t6.last); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(t.log, "# trace %s\n", file)

	return map[string]metric{
		"osmodel.emit_ns_per_ref":        {own.emit.nsPer(), "ns"},
		"cheetah.i_ns_per_key":           {sweeps.icache.nsPer(), "ns"},
		"cheetah.d_ns_per_key":           {sweeps.dcache.nsPer(), "ns"},
		"tapeworm.ns_per_ref":            {sweeps.tw.nsPer(), "ns"},
		"machine.ns_per_ref":             {mach.mach.nsPer(), "ns"},
		"search.exhaustive_s":            {sweeps.exhaustiveSec, "s"},
		"search.exhaustive_alloc_mb":     {sweeps.exhaustiveMB, "MB"},
		"search.pruned_big_s":            {sweeps.prunedSec, "s"},
		"search.pruned_priced":           {float64(sweeps.prunedPriced), "count"},
		"experiments.sweep_model_s":      {median(t6.modelS), "s"},
		"experiments.search_s":           {median(t6.searchS), "s"},
		"experiments.worker_busy_frac":   {median(t6.busyFrac), "ratio"},
		"experiments.spans_overhead_pct": {100 * (median(t6.tracedWall)/median(t6.plainWall) - 1), "%"},
		"advisor.compute_s":              {median(computed), "s"},
		"advisor.hit_s":                  {median(hits), "s"},
		"advisor.hit_ratio":              {float64(len(hits)) / float64(len(ar.last)), "ratio"},
		"layers.cpu_share":               {own.opSeconds() / ownCPU, "ratio"},
	}, nil
}
