package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"onchip/internal/advisor"
	"onchip/internal/area"
	"onchip/internal/experiments"
	"onchip/internal/obs"
	"onchip/internal/search"
	"onchip/internal/spans"
)

// adviseRefs is the per-workload scale of every advise request: a
// quarter of the Table 6 sweep, the fast-answer regime.
const adviseRefs = 250_000

// adviseSeq is one pass's request sequence. Every distinct request is
// sent twice, the repeat some time after the first, so the repeat is
// answered from the advisor's result cache.
type adviseSeq struct {
	distinct []experiments.AdviseRequest
	order    []int // indexes into distinct
}

// newAdviseSeq draws a pass from the seed: the low and high budgets and
// the order of the requests. The make-up is fixed, so every pass of
// every seed does the same kinds of work:
//
//   - Mach, Table 5 space (exhaustive search): the Table 6 setting
//     (250k rbe, any associativity), the Table 7 setting (250k, at most
//     2-way), and the low budget at any associativity;
//   - Ultrix, Table 5 space: the Table 6 setting;
//   - Mach, big space (missmodel plus pruned search): 250k at any
//     associativity and at most 2-way, and the high budget at any
//     associativity.
func newAdviseSeq(seed int64, refs int) adviseSeq {
	rng := rand.New(rand.NewSource(seed))
	// The low budget stays below 190k: from about 197k up, the Table 5
	// search's result slice grows once more and a pass allocates 4% more.
	low := float64(150_000 + 1_000*rng.Intn(40))
	high := float64(350_000 + 1_000*rng.Intn(50))
	req := func(os, space string, budget float64, assoc int) experiments.AdviseRequest {
		return experiments.AdviseRequest{OS: os, Refs: refs, BudgetRBE: budget, MaxCacheAssoc: assoc, Space: space}
	}
	s := adviseSeq{distinct: []experiments.AdviseRequest{
		req("Mach", "table5", area.BudgetRBE, 0),
		req("Mach", "table5", area.BudgetRBE, 2),
		req("Mach", "table5", low, 0),
		req("Ultrix", "table5", area.BudgetRBE, 0),
		req("Mach", "big", area.BudgetRBE, 0),
		req("Mach", "big", area.BudgetRBE, 2),
		req("Mach", "big", high, 0),
	}}
	s.order = rng.Perm(len(s.distinct))
	for i := range s.distinct {
		first := 0
		for s.order[first] != i {
			first++
		}
		at := first + 1 + rng.Intn(len(s.order)-first)
		s.order = append(s.order[:at], append([]int{i}, s.order[at:]...)...)
	}
	return s
}

// exchange is one request and its answer, as the client saw them.
type exchange struct {
	req     int // index into adviseSeq.distinct
	status  int
	source  string // X-Advisor-Source
	body    []byte
	latency time.Duration
}

// runPass starts a fresh advisor behind a loopback HTTP server and
// sends the sequence from one closed-loop client over one connection.
// It stops the server and the advisor before returning.
func runPass(seq adviseSeq, lane *spans.Lane) (ex []exchange, err error) {
	srv := advisor.New(advisor.Config{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := obs.NewHTTPServer(srv.Handler())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: transport}
	defer func() {
		transport.CloseIdleConnections()
		if serr := hs.Shutdown(context.Background()); serr != nil && err == nil {
			err = fmt.Errorf("stopping the server: %w", serr)
		}
		<-served
		if derr := srv.Drain(); derr != nil && err == nil {
			err = fmt.Errorf("draining the advisor: %w", derr)
		}
	}()

	url := "http://" + ln.Addr().String() + "/advise"
	for _, i := range seq.order {
		body, err := json.Marshal(seq.distinct[i])
		if err != nil {
			return ex, err
		}
		sp := lane.Start("POST /advise")
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		sp.End()
		if err != nil {
			return ex, fmt.Errorf("request %d: %w", len(ex)+1, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return ex, fmt.Errorf("request %d: reading the answer: %w", len(ex)+1, err)
		}
		ex = append(ex, exchange{req: i, status: resp.StatusCode,
			source: resp.Header.Get("X-Advisor-Source"), body: b, latency: time.Since(start)})
	}
	return ex, nil
}

type adviseRunner struct {
	seq   adviseSeq
	check *adviseChecker
	last  []exchange  // the latest pass, for the per-layer advisor metrics
	lane  *spans.Lane // records one span per request; nil records none
}

func newAdviseRunner(seed int64) runner {
	return &adviseRunner{seq: newAdviseSeq(seed, adviseRefs), check: newAdviseChecker()}
}

func (r *adviseRunner) op(t *opTimer) ([]string, float64, error) {
	t.start()
	ex, err := runPass(r.seq, r.lane)
	t.stop()
	if err != nil {
		return nil, 0, err
	}
	r.last = ex
	bad, best := r.check.check(r.seq, ex)
	var e float64
	for i, q := range r.seq.distinct {
		if q.OS != "Mach" || q.Space != "table5" || q.BudgetRBE != area.BudgetRBE {
			continue
		}
		switch q.MaxCacheAssoc {
		case 0:
			e += relErr(best[i], paperTable6BestCPI) / 2
		case 2:
			e += relErr(best[i], paperTable7BestCPI) / 2
		}
	}
	return bad, e, nil
}

// adviseChecker checks a pass's answers. Brute-force feasible counts
// depend only on (budget, cap), so they are kept across passes.
type adviseChecker struct {
	names    configNames
	feasible map[[2]int]int
}

func newAdviseChecker() *adviseChecker {
	big := search.Big()
	return &adviseChecker{
		names:    newConfigNames(big.TLBConfigs(), big.CacheConfigs()),
		feasible: map[[2]int]int{},
	}
}

// check returns every way the pass fails its checks, and the best CPI
// answered for each distinct request.
func (c *adviseChecker) check(seq adviseSeq, ex []exchange) ([]string, []float64) {
	var bad []string
	badf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	am := area.Default()
	best := make([]float64, len(seq.distinct))
	first := make([][]byte, len(seq.distinct))
	if len(ex) != len(seq.order) {
		badf("%d answers for %d requests", len(ex), len(seq.order))
	}
	for n, e := range ex {
		q := seq.distinct[e.req]
		what := fmt.Sprintf("request %d (%s %s budget %.0f cap %d)", n+1, q.OS, q.Space, q.BudgetRBE, q.MaxCacheAssoc)
		if e.status != http.StatusOK {
			badf("%s: status %d: %s", what, e.status, bytes.TrimSpace(e.body))
			continue
		}
		if first[e.req] != nil {
			if e.source != "cache" {
				badf("%s: repeat answered by %q, want the result cache", what, e.source)
			}
			if !bytes.Equal(e.body, first[e.req]) {
				badf("%s: repeat is not byte-identical to the first answer", what)
			}
			continue
		}
		first[e.req] = e.body
		var resp experiments.AdviseResponse
		if err := json.Unmarshal(e.body, &resp); err != nil {
			badf("%s: %v", what, err)
			continue
		}
		if len(resp.Allocations) == 0 {
			badf("%s: no allocations", what)
			continue
		}
		best[e.req] = resp.Allocations[0].CPI
		for i, a := range resp.Allocations {
			if a.Rank != i+1 {
				badf("%s: row %d has rank %d", what, i+1, a.Rank)
			}
			if i > 0 && a.CPI < resp.Allocations[i-1].CPI {
				badf("%s: rank %d CPI %v below rank %d's %v", what, a.Rank, a.CPI, i, resp.Allocations[i-1].CPI)
			}
			if a.AreaRBE > q.BudgetRBE {
				badf("%s: rank %d uses %v rbe, over budget", what, a.Rank, a.AreaRBE)
			}
			tc, okT := c.names.tlb[a.TLB]
			ic, okI := c.names.cache[a.ICache]
			dc, okD := c.names.cache[a.DCache]
			if !okT || !okI || !okD {
				badf("%s: rank %d names an unknown configuration", what, a.Rank)
				continue
			}
			if ways := q.MaxCacheAssoc; ways > 0 && (ic.Assoc > ways || dc.Assoc > ways) {
				badf("%s: rank %d uses a cache over %d-way", what, a.Rank, ways)
			}
			if price := am.TotalArea(tc, ic, dc); a.AreaRBE != price {
				badf("%s: rank %d area %v rbe, the area model prices it at %v", what, a.Rank, a.AreaRBE, price)
			}
		}
		if q.Space == "table5" {
			key := [2]int{int(q.BudgetRBE), q.MaxCacheAssoc}
			want, ok := c.feasible[key]
			if !ok {
				want = feasibleCount(q.BudgetRBE, q.MaxCacheAssoc)
				c.feasible[key] = want
			}
			if resp.Feasible != want {
				badf("%s: %d feasible, brute force counts %d", what, resp.Feasible, want)
			}
		}
	}
	for i := range seq.distinct {
		if first[i] == nil {
			badf("request %+v was never answered", seq.distinct[i])
		}
	}
	return append(bad, crossChecks(seq.distinct, best)...), best
}

// crossChecks checks properties the ranking must have across requests:
// a larger budget never raises the best CPI, capping caches at 2-way
// never lowers it, and the big space (a superset of Table 5, priced
// exactly on the Table 5 grid) never does worse than Table 5.
func crossChecks(qs []experiments.AdviseRequest, best []float64) []string {
	var bad []string
	for i := range qs {
		for j := range qs {
			a, b := qs[i], qs[j]
			if best[i] == 0 || best[j] == 0 || a.OS != b.OS {
				continue
			}
			switch {
			case a.Space == b.Space && a.MaxCacheAssoc == b.MaxCacheAssoc && a.BudgetRBE < b.BudgetRBE && best[j] > best[i]:
				bad = append(bad, fmt.Sprintf("%s %s cap %d: best CPI %v at %.0f rbe rises to %v at %.0f rbe",
					a.OS, a.Space, a.MaxCacheAssoc, best[i], a.BudgetRBE, best[j], b.BudgetRBE))
			case a.Space == b.Space && a.BudgetRBE == b.BudgetRBE && a.MaxCacheAssoc == 0 && b.MaxCacheAssoc == 2 && best[j] < best[i]:
				bad = append(bad, fmt.Sprintf("%s %s %.0f rbe: capping caches at 2-way lowers best CPI from %v to %v",
					a.OS, a.Space, a.BudgetRBE, best[i], best[j]))
			case a.BudgetRBE == b.BudgetRBE && a.MaxCacheAssoc == b.MaxCacheAssoc && a.Space == "table5" && b.Space == "big" && best[j] > best[i]:
				bad = append(bad, fmt.Sprintf("%s %.0f rbe cap %d: big-space best CPI %v above Table 5's %v",
					a.OS, a.BudgetRBE, a.MaxCacheAssoc, best[j], best[i]))
			}
		}
	}
	return bad
}
