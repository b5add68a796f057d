// Command allocbench is the end-to-end and per-layer benchmark of the
// allocation pipeline: Table 6 regeneration, Table 4 regeneration, and
// closed-loop advisor traffic over loopback HTTP. It times whole
// operations through the program's public entry points, checks every
// output against a computation made apart from the code it checks, and
// prints one JSON result object as its last line of standard output.
//
//	allocbench --workload table6|table4|advise --seed N --seconds S --trace 0|1
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it runs the traced pass instead, a fixed set of calls that ignores
// --seconds, and reports the per-layer metrics.
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations. An operation fails when it returns
// an error or any of its output checks fails; a failed check also
// clears correct. Failures are logged and the run carries on.
type tally struct {
	attempted, failed int
	correct           bool
	log               io.Writer
}

func (t *tally) record(what string, err error, problems []string) {
	t.attempted++
	if err == nil && len(problems) == 0 {
		return
	}
	t.failed++
	if err != nil {
		fmt.Fprintf(t.log, "FAIL %s: %v\n", what, err)
	}
	for _, p := range problems {
		t.correct = false
		fmt.Fprintf(t.log, "FAIL %s: check: %s\n", what, p)
	}
}

// newRunner builds one benchmark workload's inputs from the seed; the
// runner's op is the workload's timed operation.
type newRunner func(seed int64) runner

// runner executes one workload's operation and checks its output.
type runner interface {
	// op runs one whole operation. It returns what the output checks
	// found wrong and the workload's paper anchors error; err reports an
	// operation that could not complete. The checks run after the
	// operation's clock has stopped (see opTimer).
	op(t *opTimer) (problems []string, relErr float64, err error)
}

// benchWorkload is one benchmark workload: how to set it up, and the
// shortest timed phase a run gives it, however short --seconds is.
type benchWorkload struct {
	newR     newRunner
	minTimed time.Duration
}

// table4's operation is the shortest (≈2 s) and single-threaded, and its
// wall time was the noisiest on a 2-vCPU VM whose speed drifts: with a
// 10-s timed phase the run medians of ten seeds spread 18–33%
// (interquartile range over median), with 20 or 30 s 11–12% over five.
// table6 and advise already time about 12 s and 22 s through minOps.
var workloads = map[string]benchWorkload{
	"table6": {newR: newTable6Runner},
	"table4": {newR: newTable4Runner, minTimed: 25 * time.Second},
	"advise": {newR: newAdviseRunner},
}

// setups is how many times a run sets the workload up; setup_s reports
// the median.
const setups = 3

// minOps is the fewest timed operations a run makes, however short
// --seconds is.
const minOps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("allocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table6, table4 or advise")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "how long the timed phase runs")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	traceFile := fs.String("trace-file", "", "Chrome trace of the traced pass (default <build dir>/allocbench-<workload>-trace.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "allocbench: want --workload table6|table4|advise, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if *traceFile == "" {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		*traceFile = filepath.Join(dir, "allocbench-"+*name+"-trace.json")
	}
	fmt.Fprintf(stdout, "# allocbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		*name, *seed, *seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	t := &tally{correct: true, log: stdout}
	var metrics map[string]metric
	var err error
	if *traced == 1 {
		metrics, err = tracedRun(*name, *seed, *traceFile, t)
	} else {
		d := max(time.Duration(*seconds)*time.Second, w.minTimed)
		metrics, err = timedRun(w.newR, *seed, d, t)
	}
	if err != nil {
		fmt.Fprintf(stderr, "allocbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# ops attempted=%d failed=%d correct=%t\n", t.attempted, t.failed, t.correct)
	b, err := json.Marshal(result{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(stderr, "allocbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// timedRun sets the workload up `setups` times, then repeats its
// operation for at least d (and at least minOps times), and reports the
// end-to-end metrics as medians.
func timedRun(newR newRunner, seed int64, d time.Duration, t *tally) (map[string]metric, error) {
	var setupS []float64
	var r runner
	var relErr float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		start := time.Now()
		r = newR(seed)
		var warm opTimer
		problems, e, err := r.op(&warm)
		end := warm.end
		if end.IsZero() {
			end = time.Now()
		}
		setupS = append(setupS, end.Sub(start).Seconds())
		t.record(fmt.Sprintf("setup %d", i+1), err, problems)
		if err == nil {
			relErr = e
		}
	}

	var wall, cpu, alloc []float64
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < d; i++ {
		runtime.GC()
		var ot opTimer
		problems, e, err := r.op(&ot)
		t.record(fmt.Sprintf("op %d", i+1), err, problems)
		if err != nil {
			continue // the operation did not complete; it has no timing
		}
		relErr = e
		wall = append(wall, ot.wall)
		cpu = append(cpu, ot.cpu)
		alloc = append(alloc, ot.allocMB)
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("no timed operation completed")
	}
	fmt.Fprintf(t.log, "# wall_s %v\n# cpu_s %v\n# setup_s %v\n", wall, cpu, setupS)
	return map[string]metric{
		"setup_s":       {median(setupS), "s"},
		"wall_s":        {median(wall), "s"},
		"cpu_s":         {median(cpu), "s"},
		"alloc_mb":      {median(alloc), "MB"},
		"paper_rel_err": {relErr, "ratio"},
	}, nil
}
