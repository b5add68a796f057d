package experiments

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"onchip/internal/faultinject"
	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/telemetry"
	"onchip/internal/workload"
)

// storeCounts reads the store's hit and miss counters from reg.
func storeCounts(reg *telemetry.Registry) (hits, misses uint64) {
	return reg.Counter("experiments.model_store.hits", "").Value(),
		reg.Counter("experiments.model_store.misses", "").Value()
}

// sameModel fails the test unless a and b hold the same configurations
// with bit-identical CPIs.
func sameModel(t *testing.T, what string, a, b *search.Measured) {
	t.Helper()
	if math.Float64bits(a.Base) != math.Float64bits(b.Base) {
		t.Fatalf("%s: base CPI %v vs %v", what, a.Base, b.Base)
	}
	if len(a.TLB) != len(b.TLB) || len(a.IC) != len(b.IC) || len(a.DC) != len(b.DC) {
		t.Fatalf("%s: %d/%d/%d vs %d/%d/%d TLB/I/D entries", what,
			len(a.TLB), len(a.IC), len(a.DC), len(b.TLB), len(b.IC), len(b.DC))
	}
	for c, v := range a.TLB {
		if w, ok := b.TLB[c]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: TLB %v = %v vs %v", what, c, v, w)
		}
	}
	for c, v := range a.IC {
		if w, ok := b.IC[c]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: I-cache %v = %v vs %v", what, c, v, w)
		}
	}
	for c, v := range a.DC {
		if w, ok := b.DC[c]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: D-cache %v = %v vs %v", what, c, v, w)
		}
	}
}

// TestCappedProjectionMatchesCappedSweep pins the projection the store
// answers Table 7's 2-way grid with: the uncapped model restricted to
// the capped grid is bit-identical to a sweep of the capped grid, under
// both OSes.
func TestCappedProjectionMatchesCappedSweep(t *testing.T) {
	const refs = 30_000
	specs := []osmodel.WorkloadSpec{workload.MAB(), workload.VideoPlay()}
	full := search.Table5()
	capped := full
	capped.MaxCacheAssoc = 2
	for _, v := range []osmodel.Variant{osmodel.Mach, osmodel.Ultrix} {
		fullModel, failed, err := buildMeasuredModel(v, specs, full, refs, Options{})
		if err != nil || len(failed) > 0 {
			t.Fatalf("%v full sweep: %v %v", v, err, failed)
		}
		cappedModel, failed, err := buildMeasuredModel(v, specs, capped, refs, Options{})
		if err != nil || len(failed) > 0 {
			t.Fatalf("%v capped sweep: %v %v", v, err, failed)
		}
		if len(cappedModel.IC) >= len(fullModel.IC) {
			t.Fatalf("%v: capped grid has %d cache configurations, full %d", v, len(cappedModel.IC), len(fullModel.IC))
		}
		sameModel(t, v.String()+" projection", project(fullModel, capped), cappedModel)

		// Through the store: the capped request after the uncapped one
		// is a hit answered by the same projection.
		reg := telemetry.NewRegistry()
		opt := Options{Models: NewModelStore(), Metrics: reg}
		if _, _, err := measuredModel(v, specs, full, refs, opt); err != nil {
			t.Fatal(err)
		}
		got, _, err := measuredModel(v, specs, capped, refs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses := storeCounts(reg); hits != 1 || misses != 1 {
			t.Fatalf("%v: %d hits, %d misses; want the capped request projected (1, 1)", v, hits, misses)
		}
		sameModel(t, v.String()+" stored projection", got, cappedModel)
	}
}

// TestModelStoreKeys: spec order does not matter; OS, refs, workload
// parameters and grid do. A capped model is never widened to answer an
// uncapped request.
func TestModelStoreKeys(t *testing.T) {
	a := []osmodel.WorkloadSpec{workload.MAB(), workload.VideoPlay()}
	b := []osmodel.WorkloadSpec{workload.VideoPlay(), workload.MAB()}
	grid := search.Table5()
	base := modelKey(osmodel.Mach, a, grid, 1000)
	if modelKey(osmodel.Mach, b, grid, 1000) != base {
		t.Error("spec order changed the key")
	}
	tuned := workload.MAB()
	tuned.ComputeInstrs++
	capped := grid
	capped.MaxCacheAssoc = 2
	for name, k := range map[string]string{
		"OS":     modelKey(osmodel.Ultrix, a, grid, 1000),
		"refs":   modelKey(osmodel.Mach, a, grid, 1001),
		"mix":    modelKey(osmodel.Mach, a[:1], grid, 1000),
		"tuning": modelKey(osmodel.Mach, []osmodel.WorkloadSpec{tuned, workload.VideoPlay()}, grid, 1000),
		"grid":   modelKey(osmodel.Mach, a, capped, 1000),
	} {
		if k == base {
			t.Errorf("changing the %s left the key unchanged", name)
		}
	}

	s := NewModelStore()
	s.put(modelKey(osmodel.Mach, a, capped, 1000), search.NewMeasured(1))
	if m := s.lookup(base, "", grid); m != nil {
		t.Error("an uncapped request was answered from a capped model")
	}
}

// TestModelStoreSingleflight: concurrent requests for one sweep's
// inputs sweep once and all get the same model.
func TestModelStoreSingleflight(t *testing.T) {
	const n = 6
	reg := telemetry.NewRegistry()
	opt := Options{Models: NewModelStore(), Metrics: reg}
	specs := []osmodel.WorkloadSpec{workload.MAB()}
	models := make([]*search.Measured, n)
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, _, err := measuredModel(osmodel.Mach, specs, search.Table5(), 20_000, opt)
			if err != nil {
				t.Error(err)
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	if hits, misses := storeCounts(reg); hits != n-1 || misses != 1 {
		t.Fatalf("%d concurrent requests: %d hits, %d misses; want %d, 1", n, hits, misses, n-1)
	}
	if done := reg.Counter("sweep.workloads_done", "").Value(); done != 1 {
		t.Fatalf("sweep.workloads_done = %d, want one sweep of one workload", done)
	}
	for i, m := range models {
		if m != models[0] {
			t.Fatalf("request %d got a different model", i)
		}
	}
}

// TestModelStoreKeepsOnlyCleanModels: degraded, failed and cancelled
// sweeps reach their caller but are never stored, so the next request
// sweeps again.
func TestModelStoreKeepsOnlyCleanModels(t *testing.T) {
	specs := []osmodel.WorkloadSpec{workload.MAB(), workload.VideoPlay()}
	grid := search.Table5()
	const refs = 20_000
	for _, tc := range []struct {
		name string
		opt  Options
		want func(failed []string, err error) bool
	}{
		{"degraded", Options{
			// Seed 6 fires on exactly one of the two workloads' draws.
			FaultInjector: faultinject.New(faultinject.Config{Seed: 6, PanicProb: 0.5}),
		}, func(failed []string, err error) bool { return err == nil && len(failed) == 1 }},
		{"failed", Options{
			FaultInjector: faultinject.New(faultinject.Config{Seed: 1, PanicProb: 1}),
		}, func(failed []string, err error) bool { return err != nil }},
		{"cancelled", Options{Context: cancelled()},
			func(failed []string, err error) bool { return err != nil }},
	} {
		reg := telemetry.NewRegistry()
		opt := tc.opt
		opt.Models, opt.Metrics = NewModelStore(), reg
		_, failed, err := measuredModel(osmodel.Mach, specs, grid, refs, opt)
		if !tc.want(failed, err) {
			t.Fatalf("%s sweep returned failed=%v err=%v", tc.name, failed, err)
		}
		if n := len(opt.Models.models); n != 0 {
			t.Fatalf("%s sweep was stored (%d models)", tc.name, n)
		}
		clean := Options{Models: opt.Models, Metrics: reg}
		if _, failed, err := measuredModel(osmodel.Mach, specs, grid, refs, clean); err != nil || len(failed) > 0 {
			t.Fatalf("%s: clean follow-up: %v %v", tc.name, err, failed)
		}
		if hits, misses := storeCounts(reg); hits != 0 || misses != 2 {
			t.Fatalf("%s: %d hits, %d misses; the clean follow-up must sweep again", tc.name, hits, misses)
		}
	}
}

func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestModelStoreBounded: the store never holds more than its bound and
// evicts the least recently used model.
func TestModelStoreBounded(t *testing.T) {
	s := NewModelStore()
	for i := 0; i <= maxStoredModels; i++ {
		s.put(string(rune('a'+i)), search.NewMeasured(float64(i)))
		if i == 1 {
			s.lookup("a", "", search.Space{}) // "a" is now more recent than "b"
		}
	}
	if n := len(s.models); n != maxStoredModels {
		t.Fatalf("store holds %d models, bound %d", n, maxStoredModels)
	}
	if s.lookup("b", "", search.Space{}) != nil || s.lookup("a", "", search.Space{}) == nil {
		t.Fatal("eviction did not drop the least recently used model")
	}
}

// TestAllocationExperimentsShareOneModel: on one store, table6 sweeps
// and table7 is answered by projecting table6's model, and table7 then
// renders exactly what a store-less run renders. (memalloc's "all"
// runs ext-atime first; it reaches the store the same way.)
func TestAllocationExperimentsShareOneModel(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation experiments with and without a store")
	}
	const refs = 20_000
	reg := telemetry.NewRegistry()
	shared := Options{Refs: refs, Models: NewModelStore(), Metrics: reg}
	if _, err := Run("table6", shared); err != nil {
		t.Fatal(err)
	}
	got, err := Run("table7", shared)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := storeCounts(reg); hits != 1 || misses != 1 {
		t.Fatalf("table6, table7: %d hits, %d misses; want 1, 1", hits, misses)
	}
	want, err := Run("table7", Options{Refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		t.Fatalf("table7 from the stored table6 model differs from a fresh sweep:\n%s\nvs\n%s", got.Text, want.Text)
	}
}

// TestAdviseBigSpaceRepeatable: with no advisor and no store, two
// computations of one big-space request marshal byte-identically. The
// off-grid CPIs come from power-law fits, so this pins that the fits do
// not depend on map iteration order.
func TestAdviseBigSpaceRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("two big-space pruned searches")
	}
	req := AdviseRequest{OS: "Mach", Refs: 50_000, Space: "big"}
	if err := req.Normalize(0); err != nil {
		t.Fatal(err)
	}
	var bodies [2][]byte
	for i := range bodies {
		resp, err := Advise(req, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if bodies[i], err = json.Marshal(resp); err != nil {
			t.Fatal(err)
		}
	}
	if string(bodies[0]) != string(bodies[1]) {
		t.Fatalf("two computations of one big-space request differ:\n%s\n%s", bodies[0], bodies[1])
	}
}
