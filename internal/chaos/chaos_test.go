package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"onchip/internal/advisor"
	"onchip/internal/experiments"
	"onchip/internal/faultinject"
)

// fakeRun is a deterministic synthetic runner: the answer depends only
// on the request, and the latency only on the signature and a seed, so
// storms against it are reproducible.
func fakeRun(delayPerRun time.Duration) advisor.RunFunc {
	return func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
		select {
		case <-time.After(delayPerRun):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &experiments.AdviseResponse{
			Signature: req.Signature(),
			Request:   req,
			Feasible:  req.Refs,
			Allocations: []experiments.RankedAllocation{
				{Rank: 1, TLB: "t", ICache: "i", DCache: "d", AreaRBE: req.BudgetRBE, CPI: float64(req.Refs)},
			},
		}, nil
	}
}

// directFor marshals exactly the bytes the advisor serves for a
// runner, making the oracle independent of the HTTP path.
func directFor(run advisor.RunFunc) func(experiments.AdviseRequest) ([]byte, error) {
	return func(req experiments.AdviseRequest) ([]byte, error) {
		resp, err := run(context.Background(), req)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	}
}

func requestPool(n int) []experiments.AdviseRequest {
	reqs := make([]experiments.AdviseRequest, n)
	for i := range reqs {
		reqs[i] = experiments.AdviseRequest{Workloads: []string{"mab"}, Refs: 2000 + i, Top: 3}
	}
	return reqs
}

// TestOverloadStormBoundedAndCorrect drives far more concurrency than
// the pool admits: overload must resolve as clean 429 sheds while
// every 200 stays byte-identical to the oracle and p99 stays bounded
// by (queue depth + 1) computations, not by the backlog.
func TestOverloadStormBoundedAndCorrect(t *testing.T) {
	run := fakeRun(20 * time.Millisecond)
	srv := advisor.New(advisor.Config{Workers: 2, QueueDepth: 2, Run: run})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(Config{
		URL:               ts.URL,
		Clients:           8,
		RequestsPerClient: 10,
		Seed:              42,
		Requests:          requestPool(16),
		Direct:            directFor(run),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("storm violations: %v", v)
	}
	if rep.Total != 80 {
		t.Fatalf("total = %d, want 80", rep.Total)
	}
	if rep.OK == 0 {
		t.Fatal("storm produced no successful responses")
	}
	if rep.Shed == 0 {
		t.Fatal("8 clients against 2 workers + depth-2 queue should shed, got 0")
	}
	if got := rep.OK + rep.Shed + rep.Unavailable + rep.Timeouts + rep.ServerErrors + rep.BadRequests + rep.OtherStatus + rep.TransportErrors; got != rep.Total {
		t.Fatalf("status accounting: %d classified of %d", got, rep.Total)
	}
	// Shed requests return immediately and admitted ones wait at most
	// (queue + self) computations; anything near a second means the
	// admission bound leaked.
	if p99 := time.Duration(rep.P99Micros) * time.Microsecond; p99 > 2*time.Second {
		t.Fatalf("p99 = %v; overload latency must stay bounded", p99)
	}
}

// TestDrainMidStormDropsNothing: a drain in the middle of a storm
// must finish every admitted request (byte-correct), refuse the rest
// cleanly, and leave no pending work behind.
func TestDrainMidStormDropsNothing(t *testing.T) {
	run := fakeRun(15 * time.Millisecond)
	srv := advisor.New(advisor.Config{Workers: 2, QueueDepth: 4, DrainTimeout: 10 * time.Second, Run: run})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	var rep *Report
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, runErr = Run(Config{
			URL:               ts.URL,
			Clients:           6,
			RequestsPerClient: 12,
			Seed:              7,
			Requests:          requestPool(8),
			Direct:            directFor(run),
			ThinkTime:         2 * time.Millisecond,
		})
	}()
	time.Sleep(60 * time.Millisecond) // mid-storm
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("storm violations across drain: %v", v)
	}
	if rep.OK == 0 {
		t.Fatal("no request completed before the drain")
	}
	if rep.Unavailable == 0 {
		t.Fatal("no request observed the draining 503")
	}
	if n := len(srv.Pending()); n != 0 {
		t.Fatalf("drain left %d admitted request(s) unfinished", n)
	}
}

// realPipelinePool keeps the real-pipeline storms cheap: tiny
// reference counts over one workload, three distinct signatures.
func realPipelinePool() []experiments.AdviseRequest {
	var reqs []experiments.AdviseRequest
	for i := 0; i < 3; i++ {
		reqs = append(reqs, experiments.AdviseRequest{
			Workloads: []string{"mab"},
			Refs:      1000 + 500*i,
			Top:       5,
		})
	}
	return reqs
}

// sharedModelPool asks four questions of two measured models: three
// requests differ only in budget or cap and share one sweep's inputs,
// so an advisor with a model store answers them from one model (the
// capped one by projection).
func sharedModelPool() []experiments.AdviseRequest {
	return []experiments.AdviseRequest{
		{Workloads: []string{"mab"}, Refs: 1500, Top: 5},
		{Workloads: []string{"mab"}, Refs: 1500, Top: 5, MaxCacheAssoc: 2},
		{Workloads: []string{"mab"}, Refs: 1500, Top: 5, BudgetRBE: 200_000},
		{Workloads: []string{"mab"}, Refs: 2000, Top: 5},
	}
}

func realDirect(req experiments.AdviseRequest) ([]byte, error) {
	resp, err := experiments.Advise(req, experiments.Options{})
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// TestRealPipelineWithFaultsIsByteIdentical is the end-to-end
// correctness gate: the advisor runs the real experiments pipeline
// with its model store while sweep workers panic at random (no
// retries, so a panic degrades the model and fails the request). Every
// 200 must be byte-identical to a clean, store-less direct run, and
// every failure must be a retryable 503 -- a fault may cost a request,
// never corrupt an answer or a stored model.
func TestRealPipelineWithFaultsIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweep pipeline")
	}
	srv := advisor.New(advisor.Config{
		Workers:       2,
		QueueDepth:    8,
		FaultInjector: faultinject.New(faultinject.Config{Seed: 11, PanicProb: 0.3}),
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(Config{
		URL:               ts.URL,
		Clients:           4,
		RequestsPerClient: 5,
		Seed:              1,
		Requests:          sharedModelPool(),
		Direct:            realDirect,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("violations with panicking sweep workers: %v", v)
	}
	if rep.OK+rep.Unavailable != rep.Total {
		t.Fatalf("%d ok + %d unavailable of %d; every failure must be a 503 with Retry-After (report %+v)",
			rep.OK, rep.Unavailable, rep.Total, rep)
	}
	if rep.OK == 0 || rep.Unavailable == 0 {
		t.Fatalf("%d ok, %d unavailable: the seeded faults should fail some requests and spare others", rep.OK, rep.Unavailable)
	}
	if rep.CacheHits+rep.Dedups == 0 {
		t.Fatal("storm of 20 requests over 4 signatures should hit the result cache or dedup")
	}

	// A degraded sweep is never stored. A server whose every sweep
	// panics fails its request with a retryable 503; a clean follow-up
	// of the same request through that server's store must then sweep
	// again (a miss), and answer exactly what a store-less run does.
	failing := advisor.New(advisor.Config{
		Workers:       1,
		FaultInjector: faultinject.New(faultinject.Config{Seed: 1, PanicProb: 1}),
	})
	defer failing.Drain()
	fts := httptest.NewServer(failing.Handler())
	defer fts.Close()
	req := experiments.AdviseRequest{Workloads: []string{"mab"}, Refs: 1500, Top: 5}
	body, _ := json.Marshal(req)
	resp, err := http.Post(fts.URL+"/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("failed sweep answered %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	misses := failing.Metrics().Counter("experiments.model_store.misses", "")
	before := misses.Value()
	if err := req.Normalize(0); err != nil {
		t.Fatal(err)
	}
	clean, err := experiments.Advise(req, experiments.Options{Models: failing.Models(), Metrics: failing.Metrics()})
	if err != nil {
		t.Fatalf("clean follow-up: %v", err)
	}
	if got := misses.Value() - before; got != 1 {
		t.Fatalf("clean follow-up swept %d time(s), want 1: a degraded model was reused", got)
	}
	got, _ := json.Marshal(clean)
	want, err := realDirect(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("clean follow-up differs from a store-less run:\n got %s\nwant %s", got, want)
	}
}

// TestBenchAdvisorArtifact runs the bench storm against the real
// pipeline and records BENCH_advisor.json when BENCH_ADVISOR_JSON
// names the output (the `make bench-advisor` entry point). The chaos
// gate applies: any correctness violation fails the run.
func TestBenchAdvisorArtifact(t *testing.T) {
	out := os.Getenv("BENCH_ADVISOR_JSON")
	if out == "" {
		t.Skip("set BENCH_ADVISOR_JSON to record the advisor bench artifact")
	}
	srv := advisor.New(advisor.Config{Workers: 4, QueueDepth: 8})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(Config{
		URL:               ts.URL,
		Clients:           8,
		RequestsPerClient: 8,
		Seed:              2026,
		Requests:          realPipelinePool(),
		Direct:            realDirect,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("bench storm violations: %v", v)
	}
	if err := rep.WriteJSON(out); err != nil {
		t.Fatal(err)
	}
	t.Logf("advisor bench: %d req (%d ok, %d shed) p50=%dus p99=%dus %.1f req/s shed=%.2f cachehit=%.2f -> %s",
		rep.Total, rep.OK, rep.Shed, rep.P50Micros, rep.P99Micros, rep.ReqPerSec, rep.ShedRate, rep.CacheHitRate, out)
	fmt.Println("BENCH_advisor written:", out)
}
