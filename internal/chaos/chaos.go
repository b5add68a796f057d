// Package chaos is the advisor's deterministic load-and-fault
// harness: seeded concurrent clients fire request storms at a running
// advisor while (optionally) the fault-injection layer panics sweep
// workers underneath it, and the harness
// checks the hardening contract from the outside:
//
//   - correctness: every 2xx body must be byte-identical to a direct,
//     fault-free run of the same request (the oracle) -- degraded or
//     stale answers are violations, not noise
//   - bounded behavior: overload resolves as clean 429/503 sheds with
//     Retry-After, never as hung connections or transport errors
//   - lifecycle: a drain in the middle of a storm must not drop
//     admitted work
//
// Everything is seeded, so a failing storm replays exactly.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"onchip/internal/experiments"
)

// Config describes one storm.
type Config struct {
	// URL is the advisor's base URL (the harness POSTs to URL+"/advise").
	URL string
	// Clients is the number of concurrent clients; 0 selects 4.
	Clients int
	// RequestsPerClient is each client's request count; 0 selects 8.
	RequestsPerClient int
	// Seed drives every random choice (request selection, think time);
	// the same seed replays the same storm shape.
	Seed int64
	// Requests is the pool clients sample from. Each is normalized by
	// Run before use; invalid entries fail Run up front.
	Requests []experiments.AdviseRequest
	// Direct computes the oracle answer for one request: the exact
	// bytes a 2xx response must carry. It runs at most once per
	// distinct signature. Nil disables byte-identity checking.
	Direct func(req experiments.AdviseRequest) ([]byte, error)
	// ThinkTime is the mean per-client pause between requests (jittered
	// by the seeded PRNG); 0 means fire back to back.
	ThinkTime time.Duration
	// Client overrides the HTTP client (tests shorten timeouts).
	Client *http.Client
}

// Report aggregates one storm's outcomes.
type Report struct {
	Total           int `json:"total"`
	OK              int `json:"ok"`               // 200
	Shed            int `json:"shed"`             // 429
	Unavailable     int `json:"unavailable"`      // 503 (drain, degraded)
	Timeouts        int `json:"timeouts"`         // 504
	ServerErrors    int `json:"server_errors"`    // 500
	BadRequests     int `json:"bad_requests"`     // 4xx other than 429
	OtherStatus     int `json:"other_status"`     // anything else
	TransportErrors int `json:"transport_errors"` // connection-level failures
	CacheHits       int `json:"cache_hits"`       // X-Advisor-Source: cache
	Dedups          int `json:"dedups"`           // X-Advisor-Source: dedup
	MissingRetry    int `json:"missing_retry"`    // 429/503 without Retry-After

	// Mismatches are correctness violations: 2xx bodies that differ
	// from the oracle, described one per entry.
	Mismatches []string `json:"mismatches,omitempty"`

	ElapsedSec   float64 `json:"elapsed_sec"`
	P50Micros    int64   `json:"p50_us"`
	P99Micros    int64   `json:"p99_us"`
	ReqPerSec    float64 `json:"req_per_sec"`
	ShedRate     float64 `json:"shed_rate"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Violations reports whether the storm observed any correctness or
// transport-level failure (the chaos CI gate).
func (r *Report) Violations() []string {
	var v []string
	for _, m := range r.Mismatches {
		v = append(v, "byte mismatch: "+m)
	}
	if r.TransportErrors > 0 {
		v = append(v, fmt.Sprintf("%d transport error(s): admitted work dropped or connections broken", r.TransportErrors))
	}
	if r.MissingRetry > 0 {
		v = append(v, fmt.Sprintf("%d backpressure response(s) without Retry-After", r.MissingRetry))
	}
	if r.OtherStatus > 0 {
		v = append(v, fmt.Sprintf("%d response(s) with unexpected status", r.OtherStatus))
	}
	return v
}

// WriteJSON persists the report (the BENCH_advisor.json artifact).
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// oracle memoizes Direct per signature so concurrent clients agree on
// (and only compute once) each expected body.
type oracle struct {
	direct func(experiments.AdviseRequest) ([]byte, error)
	mu     sync.Mutex
	cells  map[string]*oracleCell
}

type oracleCell struct {
	once sync.Once
	body []byte
	err  error
}

func (o *oracle) expect(key string, req experiments.AdviseRequest) ([]byte, error) {
	o.mu.Lock()
	c, ok := o.cells[key]
	if !ok {
		c = &oracleCell{}
		o.cells[key] = c
	}
	o.mu.Unlock()
	c.once.Do(func() { c.body, c.err = o.direct(req) })
	return c.body, c.err
}

// Run fires the storm and aggregates the report. The only error
// return is a malformed Config (bad requests, no URL); everything
// observed during the storm itself lands in the Report.
func Run(cfg Config) (*Report, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("chaos: Config.URL required")
	}
	if len(cfg.Requests) == 0 {
		return nil, fmt.Errorf("chaos: Config.Requests required")
	}
	if cfg.Clients == 0 {
		cfg.Clients = 4
	}
	if cfg.RequestsPerClient == 0 {
		cfg.RequestsPerClient = 8
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Minute}
	}
	// Normalize the pool once: signatures and request bytes are then
	// stable for the whole storm.
	type pooled struct {
		key  string
		req  experiments.AdviseRequest
		body []byte
	}
	pool := make([]pooled, len(cfg.Requests))
	for i := range cfg.Requests {
		req := cfg.Requests[i]
		if err := req.Normalize(0); err != nil {
			return nil, fmt.Errorf("chaos: request %d: %w", i, err)
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("chaos: request %d: %w", i, err)
		}
		pool[i] = pooled{key: req.Signature(), req: req, body: b}
	}
	var orc *oracle
	if cfg.Direct != nil {
		orc = &oracle{direct: cfg.Direct, cells: make(map[string]*oracleCell)}
	}

	perClient := make([]*Report, cfg.Clients)
	latencies := make([][]time.Duration, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rep := &Report{}
			perClient[ci] = rep
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ci)))
			for n := 0; n < cfg.RequestsPerClient; n++ {
				if cfg.ThinkTime > 0 {
					time.Sleep(time.Duration(rng.Int63n(int64(2 * cfg.ThinkTime))))
				}
				p := pool[rng.Intn(len(pool))]
				rep.Total++
				t0 := time.Now()
				resp, err := cfg.Client.Post(cfg.URL+"/advise", "application/json", bytes.NewReader(p.body))
				if err != nil {
					rep.TransportErrors++
					continue
				}
				body, rerr := readAll(resp)
				latencies[ci] = append(latencies[ci], time.Since(t0))
				if rerr != nil {
					rep.TransportErrors++
					continue
				}
				switch src := resp.Header.Get("X-Advisor-Source"); src {
				case "cache":
					rep.CacheHits++
				case "dedup":
					rep.Dedups++
				}
				switch resp.StatusCode {
				case http.StatusOK:
					rep.OK++
					if orc != nil {
						want, werr := orc.expect(p.key, p.req)
						if werr != nil {
							rep.Mismatches = append(rep.Mismatches,
								fmt.Sprintf("%s: oracle failed: %v", p.key, werr))
						} else if !bytes.Equal(body, want) {
							rep.Mismatches = append(rep.Mismatches,
								fmt.Sprintf("%s: 200 body differs from direct run (%d vs %d bytes)", p.key, len(body), len(want)))
						}
					}
				case http.StatusTooManyRequests:
					rep.Shed++
					if resp.Header.Get("Retry-After") == "" {
						rep.MissingRetry++
					}
				case http.StatusServiceUnavailable:
					rep.Unavailable++
					if resp.Header.Get("Retry-After") == "" {
						rep.MissingRetry++
					}
				case http.StatusGatewayTimeout:
					rep.Timeouts++
				case http.StatusInternalServerError:
					rep.ServerErrors++
				default:
					if resp.StatusCode >= 400 && resp.StatusCode < 500 {
						rep.BadRequests++
					} else {
						rep.OtherStatus++
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := &Report{ElapsedSec: elapsed.Seconds()}
	var all []time.Duration
	for ci, rep := range perClient {
		total.Total += rep.Total
		total.OK += rep.OK
		total.Shed += rep.Shed
		total.Unavailable += rep.Unavailable
		total.Timeouts += rep.Timeouts
		total.ServerErrors += rep.ServerErrors
		total.BadRequests += rep.BadRequests
		total.OtherStatus += rep.OtherStatus
		total.TransportErrors += rep.TransportErrors
		total.CacheHits += rep.CacheHits
		total.Dedups += rep.Dedups
		total.MissingRetry += rep.MissingRetry
		total.Mismatches = append(total.Mismatches, rep.Mismatches...)
		all = append(all, latencies[ci]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		total.P50Micros = all[len(all)*50/100].Microseconds()
		p99 := len(all) * 99 / 100
		if p99 >= len(all) {
			p99 = len(all) - 1
		}
		total.P99Micros = all[p99].Microseconds()
	}
	if elapsed > 0 {
		total.ReqPerSec = float64(total.Total) / elapsed.Seconds()
	}
	if total.Total > 0 {
		total.ShedRate = float64(total.Shed) / float64(total.Total)
		total.CacheHitRate = float64(total.CacheHits) / float64(total.Total)
	}
	return total, nil
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
