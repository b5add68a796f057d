package experiments

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"onchip/internal/area"
	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/spans"
	"onchip/internal/tapeworm"
	"onchip/internal/telemetry"
	"onchip/internal/tlb"
	"onchip/internal/trace"
	"onchip/internal/workload"
)

// recordStream pre-generates a reference stream once so the benchmarks
// measure simulation cost, not generation.
func recordStream(refs int) []trace.Ref {
	var out []trace.Ref
	osmodel.NewSystem(osmodel.Mach, workload.VideoPlay()).
		Generate(refs, trace.SinkFunc(func(r trace.Ref) { out = append(out, r) }))
	return out
}

func replay(b *testing.B, stream []trace.Ref, sink trace.Sink) {
	b.Helper()
	batch := trace.Batched(sink)
	b.SetBytes(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(stream); lo += 1024 {
			hi := lo + 1024
			if hi > len(stream) {
				hi = len(stream)
			}
			batch.Refs(stream[lo:hi])
		}
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkSweepEngine measures the fused engine (serial groups) over
// the full Table 5 cache space.
func BenchmarkSweepEngine(b *testing.B) {
	stream := recordStream(200_000)
	engine := newSweepEngine(search.Table5().CacheConfigs(), 8, enginePar{})
	replay(b, stream, engine)
}

// BenchmarkSweepEngineParallel is the same engine with its group pool
// and automatic set sharding.
func BenchmarkSweepEngineParallel(b *testing.B) {
	stream := recordStream(200_000)
	engine := newSweepEngine(search.Table5().CacheConfigs(), 8, enginePar{workers: sweepWorkers(0)})
	defer engine.close()
	replay(b, stream, engine)
}

// BenchmarkSweepLegacyDirect measures what the engine replaced on the
// D-stream side alone: direct per-configuration simulation with
// per-reference delivery.
func BenchmarkSweepLegacyDirect(b *testing.B) {
	stream := recordStream(200_000)
	direct := newDirectDCacheSweep(search.Table5().CacheConfigs())
	replay(b, stream, unbatched{direct})
}

// sweepBenchStats is the schema of BENCH_sweep.json.
type sweepBenchStats struct {
	Refs             int     `json:"refs"`
	Workload         string  `json:"workload"`
	CacheConfigs     int     `json:"cache_configs"`
	Workers          int     `json:"workers"`
	Shards           int     `json:"shards"`
	LegacySeconds    float64 `json:"legacy_seconds"`
	EngineSeconds    float64 `json:"engine_seconds"`
	LegacyRefsPerSec float64 `json:"legacy_refs_per_sec"`
	EngineRefsPerSec float64 `json:"engine_refs_per_sec"`
	Speedup          float64 `json:"speedup"`
	LegacyNsPerRef   float64 `json:"legacy_ns_per_ref"`
	EngineNsPerRef   float64 `json:"engine_ns_per_ref"`

	// The workers/shards series: the same fused sweep at one worker
	// (serial engine, no pool) versus the Workers/Shards arrangement
	// above. ParallelSpeedup is Engine1Seconds/EngineSeconds.
	Engine1Seconds  float64 `json:"engine_1worker_seconds"`
	ParallelSpeedup float64 `json:"parallel_speedup"`

	// Span-tracing overhead: the same fused sweep re-run with a live
	// tracer (phase lanes, per-job worker spans, telemetry folding), as
	// -spans wires it. OverheadPct is (spans-on / spans-off - 1) * 100.
	EngineSpansSeconds float64 `json:"engine_spans_seconds"`
	SpansRefsPerSec    float64 `json:"spans_refs_per_sec"`
	SpansOverheadPct   float64 `json:"spans_overhead_pct"`
	SpansRecorded      int     `json:"spans_recorded"`
}

// timeFusedSweep runs one workload's fused model-building sweep (the
// production warm-up/measure plan against the engine + tapeworm tee)
// and returns the engine and the elapsed seconds. A non-nil par.tr
// instruments it exactly the way sweepWorkload does: workload-lane
// phase spans plus the engine's per-job worker-lane spans.
func timeFusedSweep(t *testing.T, spec osmodel.WorkloadSpec, cacheCfgs []area.CacheConfig, tlbConfigs []tlb.Config, refsEach int, par enginePar) (*sweepEngine, float64) {
	t.Helper()
	start := time.Now()
	lane := par.tr.Lane("workload/" + spec.Name)
	wl := lane.Start("sweep.workload")
	engine := newSweepEngine(cacheCfgs, 8, par)
	hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
	tw := tapeworm.Attach(hw, tlbConfigs...)
	tsink := &tlbOnly{hw: hw}
	reset := func() {
		hw.ResetService()
		tw.ResetServices()
		tsink.instrs = 0
	}
	_, _, err := generatePhases(context.Background(), osmodel.NewSystem(osmodel.Mach, spec), refsEach,
		trace.Tee{engine, tsink}, tsink, reset, lane)
	if err != nil {
		t.Fatalf("fused sweep of %s failed: %v", spec.Name, err)
	}
	wl.End()
	return engine, time.Since(start).Seconds()
}

// TestSweepBenchArtifact times one workload's complete model-building
// sweep at the default scale -- the original three-generation,
// direct-D-simulation arrangement against the fused engine -- and
// writes the measurements to $BENCH_SWEEP_JSON (make bench sets it).
// It records, not asserts, the speedup: CI machines vary.
func TestSweepBenchArtifact(t *testing.T) {
	path := os.Getenv("BENCH_SWEEP_JSON")
	if path == "" {
		t.Skip("set BENCH_SWEEP_JSON=<path> to run the sweep benchmark and write the artifact")
	}
	const refsEach = defaultSweepRefs
	spec := workload.VideoPlay()
	cacheCfgs := search.Table5().CacheConfigs()
	var tlbConfigs []tlb.Config
	for _, c := range search.Table5().TLBConfigs() {
		tlbConfigs = append(tlbConfigs, tlb.Config{TLBConfig: c})
	}

	// Legacy: three generations, per-reference delivery, direct D-sim.
	legacyStart := time.Now()
	isweep := newICacheSweep(cacheCfgs, 8)
	osmodel.NewSystem(osmodel.Mach, spec).Generate(refsEach, unbatched{isweep})
	direct := newDirectDCacheSweep(cacheCfgs)
	osmodel.NewSystem(osmodel.Mach, spec).Generate(refsEach, unbatched{direct})
	runTapeworm(osmodel.Mach, spec, refsEach, tlbConfigs, nil)
	legacySec := time.Since(legacyStart).Seconds()

	// mustMatchLegacy pins every timed variant to the legacy counts
	// before its timing is allowed to mean anything.
	mustMatchLegacy := func(name string, e *sweepEngine) {
		t.Helper()
		for i, c := range cacheCfgs {
			if e.iMisses(c) != isweep.misses(c) || e.dReadMisses(c) != direct.caches[i].Stats().ReadMisses {
				t.Fatalf("%s %v: fused and legacy sweeps disagree; timings are meaningless", name, c)
			}
		}
	}

	// Fused, serial: one generation, batched, no pool. The baseline of
	// the workers/shards series.
	serial, serialSec := timeFusedSweep(t, spec, cacheCfgs, tlbConfigs, refsEach, enginePar{})
	serial.close()
	mustMatchLegacy("serial", serial)

	// Fused, parallel: the group pool at full machine width with
	// automatic set sharding (the sweep runs one workload here, so the
	// pool gets the whole machine, as the real sweep's shared pool
	// would once other workloads drain).
	workers := sweepWorkers(0)
	engine, engineSec := timeFusedSweep(t, spec, cacheCfgs, tlbConfigs, refsEach, enginePar{workers: workers})
	defer engine.close()
	mustMatchLegacy("parallel", engine)

	// Spans on: the identical fused sweep under a live tracer with
	// telemetry folding, measuring what -spans costs end to end.
	tracer := spans.New(0)
	tracer.SetMetrics(telemetry.NewRegistry())
	spansEngine, spansSec := timeFusedSweep(t, spec, cacheCfgs, tlbConfigs, refsEach,
		enginePar{workers: workers, tr: tracer, lanePrefix: "sweep/" + spec.Name})
	spansEngine.close()
	mustMatchLegacy("spans", spansEngine)

	stats := sweepBenchStats{
		Refs:             refsEach,
		Workload:         spec.Name,
		CacheConfigs:     len(cacheCfgs),
		Workers:          workers,
		Shards:           engine.shards,
		LegacySeconds:    legacySec,
		EngineSeconds:    engineSec,
		LegacyRefsPerSec: float64(refsEach) / legacySec,
		EngineRefsPerSec: float64(refsEach) / engineSec,
		Speedup:          legacySec / engineSec,
		LegacyNsPerRef:   legacySec * 1e9 / float64(refsEach),
		EngineNsPerRef:   engineSec * 1e9 / float64(refsEach),

		Engine1Seconds:  serialSec,
		ParallelSpeedup: serialSec / engineSec,

		EngineSpansSeconds: spansSec,
		SpansRefsPerSec:    float64(refsEach) / spansSec,
		SpansOverheadPct:   (spansSec/engineSec - 1) * 100,
		SpansRecorded:      len(tracer.Records()),
	}
	data, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("model-building sweep at %d refs: legacy %.2fs, serial %.2fs, fused %.2fs (%.1fx vs legacy, %d workers x %d shards), spans on %.2fs (%+.1f%%, %d spans) -> %s",
		refsEach, legacySec, serialSec, engineSec, stats.Speedup, workers, stats.Shards,
		spansSec, stats.SpansOverheadPct, stats.SpansRecorded, path)
}
