package experiments

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/sig"
)

// maxStoredModels bounds a ModelStore. A measured model is a few hundred
// floats, so the bound exists to keep a long-running advisor's memory
// flat under arbitrary request mixes, not to save space on typical use
// (Tables 6/7 and ext-atime share one model; an advise pass needs two
// or three).
const maxStoredModels = 16

// ModelStore keeps the measured models that model-building sweeps
// produce, so every later question about the same sweep inputs -- a
// different budget, a 2-way cap, the big space, an access-time ceiling
// -- is answered from the stored model instead of a new sweep. The
// paper ranks all of its budgets and caps against one measured model
// per OS; the store gives the pipeline the same shape.
//
// A model is keyed by the sweep's inputs: OS, workload specs (order
// does not matter), references per workload and the simulated grid. A
// request for an associativity-capped grid (Table 7's 2-way cap) is
// answered by projecting a stored uncapped model onto the capped grid:
// each cache configuration's miss count comes from its own stack
// simulation group, so the projection is bit-identical to a capped
// sweep. On a miss the store sweeps exactly the grid requested.
//
// Concurrent requests for one key share a single sweep. Only clean
// models are stored: a degraded sweep (some workload failed), a failed
// one or a cancelled one is handed to its own caller and forgotten, so
// the next request sweeps again. Models handed out are shared and must
// be treated as read-only.
//
// A store is scoped, never process-global: Options.Models is nil by
// default, and each memalloc invocation and each advisor instance
// creates its own. The zero value is not usable; call NewModelStore.
type ModelStore struct {
	mu      sync.Mutex
	models  map[string]*search.Measured
	recency []string // stored keys, least recently used first
	flights map[string]chan struct{}
}

// NewModelStore returns an empty store.
func NewModelStore() *ModelStore {
	return &ModelStore{
		models:  make(map[string]*search.Measured),
		flights: make(map[string]chan struct{}),
	}
}

// modelKey content-addresses one sweep's inputs. Each spec's %+v
// rendering folds in every workload parameter, so retuning a mix
// re-keys its models even at an unchanged seed; the renderings are
// sorted because the merged sweep counts do not depend on spec order.
func modelKey(v osmodel.Variant, specs []osmodel.WorkloadSpec, grid search.Space, refs int) string {
	fps := make([]string, len(specs))
	for i, spec := range specs {
		fps[i] = fmt.Sprintf("%+v", spec)
	}
	sort.Strings(fps)
	h := sig.New()
	h.Put(v.String(), refs, len(fps))
	for _, fp := range fps {
		h.Put(fp)
	}
	h.Putf("%+v", grid)
	return h.String()
}

// measuredModel returns the measured model for the sweep inputs: from
// opt.Models when it holds one, otherwise by a sweep (stored when
// opt.Models is set and the sweep is clean). failed lists the workload
// sweeps a fresh, degraded model excludes; a stored model never has
// any. The sweep records a "sweep.model" span on the caller's main
// lane, a stored answer a "sweep.model_hit" span.
func measuredModel(v osmodel.Variant, specs []osmodel.WorkloadSpec, grid search.Space, refs int, opt Options) (*search.Measured, []string, error) {
	lane := opt.Spans.Lane("main")
	sweep := func() (*search.Measured, []string, error) {
		span := lane.Start("sweep.model")
		defer span.End()
		return buildMeasuredModel(v, specs, grid, refs, opt)
	}
	s := opt.Models
	if s == nil {
		return sweep()
	}
	hits := opt.Metrics.Counter("experiments.model_store.hits",
		"measured models answered from the model store (exactly or projected)")
	misses := opt.Metrics.Counter("experiments.model_store.misses",
		"measured models the model store had to sweep")

	key := modelKey(v, specs, grid, refs)
	fullKey := "" // the uncapped grid a capped request can be projected from
	if grid.MaxCacheAssoc > 0 {
		full := grid
		full.MaxCacheAssoc = 0
		fullKey = modelKey(v, specs, full, refs)
	}
	ctx := opt.ctx()
	for {
		s.mu.Lock()
		if m := s.lookup(key, fullKey, grid); m != nil {
			s.mu.Unlock()
			hits.Inc()
			lane.Start("sweep.model_hit").End()
			return m, nil, nil
		}
		wait := s.flights[key]
		if wait == nil && fullKey != "" {
			wait = s.flights[fullKey]
		}
		if wait == nil {
			done := make(chan struct{})
			s.flights[key] = done
			s.mu.Unlock()
			misses.Inc()
			return s.lead(key, done, sweep)
		}
		s.mu.Unlock()
		// Another request is sweeping these inputs. When it finishes the
		// next lookup finds its model, or -- if it stored none (degraded,
		// failed, cancelled) -- this request sweeps for itself.
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// lead runs the sweep for key as the single flight on it, stores the
// model when it is clean, and releases any waiters. The deferred
// release also runs if the sweep panics, so waiters never hang.
func (s *ModelStore) lead(key string, done chan struct{}, sweep func() (*search.Measured, []string, error)) (m *search.Measured, failed []string, err error) {
	defer func() {
		s.mu.Lock()
		delete(s.flights, key)
		if err == nil && len(failed) == 0 && m != nil {
			s.put(key, m)
		}
		s.mu.Unlock()
		close(done)
	}()
	return sweep()
}

// lookup finds key's model, or projects the uncapped model stored under
// fullKey onto grid. Callers hold s.mu.
func (s *ModelStore) lookup(key, fullKey string, grid search.Space) *search.Measured {
	if m, ok := s.models[key]; ok {
		s.touch(key)
		return m
	}
	if fullKey == "" {
		return nil
	}
	if m, ok := s.models[fullKey]; ok {
		s.touch(fullKey)
		return project(m, grid)
	}
	return nil
}

// put stores m under key, evicting the least recently used model when
// the store is full. Callers hold s.mu.
func (s *ModelStore) put(key string, m *search.Measured) {
	if _, ok := s.models[key]; ok {
		s.touch(key)
		return
	}
	if len(s.recency) >= maxStoredModels {
		delete(s.models, s.recency[0])
		s.recency = s.recency[1:]
	}
	s.models[key] = m
	s.recency = append(s.recency, key)
}

// touch marks key most recently used. Callers hold s.mu.
func (s *ModelStore) touch(key string) {
	if i := slices.Index(s.recency, key); i >= 0 {
		s.recency = append(slices.Delete(s.recency, i, i+1), key)
	}
}

// project restricts a measured model to grid's configurations.
func project(m *search.Measured, grid search.Space) *search.Measured {
	out := search.NewMeasured(m.Base)
	for _, c := range grid.TLBConfigs() {
		if v, ok := m.TLB[c]; ok {
			out.TLB[c] = v
		}
	}
	for _, c := range grid.CacheConfigs() {
		if v, ok := m.IC[c]; ok {
			out.IC[c] = v
		}
		if v, ok := m.DC[c]; ok {
			out.DC[c] = v
		}
	}
	return out
}
