// Command tracegen generates and inspects binary memory-reference
// traces from the OS/workload behavioral model -- the reproduction's
// stand-in for the paper's Monster-captured DECstation traces.
//
// Usage:
//
//	tracegen -workload mpeg_play -os Mach -refs 1000000 -o trace.octr
//	tracegen -stat trace.octr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"onchip/internal/lifecycle"
	"onchip/internal/obs"
	"onchip/internal/osmodel"
	"onchip/internal/spans"
	"onchip/internal/telemetry"
	"onchip/internal/trace"
	"onchip/internal/workload"
)

func main() {
	wl := flag.String("workload", "mpeg_play", "workload name (see -list)")
	osName := flag.String("os", "Mach", "operating system: Ultrix or Mach")
	refs := flag.Int("refs", 1_000_000, "references to generate")
	out := flag.String("o", "", "output trace file (default stdout summary only)")
	stat := flag.String("stat", "", "inspect an existing trace file instead of generating")
	skipCorrupt := flag.Bool("skip-corrupt", false, "with -stat: skip corrupt records (counted) instead of aborting")
	list := flag.Bool("list", false, "list workload names")
	metricsFile := flag.String("metrics", "", "write run manifest and metrics as JSONL to this file")
	serveAddr := flag.String("serve", "", "serve live observability endpoints on this address (e.g. :6060)")
	spansFile := flag.String("spans", "", "write execution spans as Chrome trace-event JSON to this file (Perfetto-loadable)")
	profSpan := flag.String("prof-span", "", "capture a CPU profile bracketed by the first span with this name (e.g. generate)")
	profSpanOut := flag.String("prof-span-out", "", "CPU profile output path for -prof-span (default span_<name>.pprof)")
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}
	if *stat != "" {
		if err := statFile(*stat, *skipCorrupt); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		return
	}

	ctx, stopSignals := lifecycle.Notify(context.Background(), "tracegen", nil)
	defer stopSignals()

	start := time.Now()
	var reg *telemetry.Registry
	if *metricsFile != "" || *serveAddr != "" {
		reg = telemetry.NewRegistry()
	}
	spanTr, drainSpans, err := spans.Setup(ctx, "tracegen", *spansFile, *profSpan, *profSpanOut, *serveAddr != "")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer drainSpans()
	spanTr.SetMetrics(reg)
	man := &telemetry.Manifest{
		Command:   "tracegen",
		Args:      os.Args[1:],
		Start:     start.Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Labels:    map[string]string{"workload": *wl, "os": *osName},
	}
	if *serveAddr != "" {
		srv := obs.New(obs.Config{Registry: reg, Manifest: man, Spans: spanTr})
		bound, err := srv.Start(*serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen: serve:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "tracegen: observability plane on http://%s/\n", bound)
	}
	genErr := generate(ctx, *wl, *osName, *refs, *out, reg, spanTr.Lane("main"))
	interrupted := errors.Is(genErr, context.Canceled)
	if genErr != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "tracegen:", genErr)
		os.Exit(1)
	}
	// The metrics snapshot is still written after an interrupt: it
	// covers exactly the records that made it into the (valid) partial
	// trace file.
	if *metricsFile != "" {
		f, err := os.Create(*metricsFile)
		if err == nil {
			err = telemetry.WriteJSONL(f, man, reg.Snapshot())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
	}
	if interrupted {
		drainSpans() // os.Exit skips defers; the trace still lands
		os.Exit(lifecycle.InterruptExit)
	}
}

func variant(name string) (osmodel.Variant, error) {
	switch name {
	case "Ultrix", "ultrix":
		return osmodel.Ultrix, nil
	case "Mach", "mach":
		return osmodel.Mach, nil
	}
	return 0, fmt.Errorf("unknown OS %q (want Ultrix or Mach)", name)
}

// genChunk is how many references each System.Run slice generates
// between cancellation checks; Run continues from where the previous
// slice stopped, so chunking does not change the generated stream.
const genChunk = 1 << 20

func generate(ctx context.Context, wl, osName string, refs int, out string, reg *telemetry.Registry, lane *spans.Lane) error {
	spec, err := workload.ByName(wl)
	if err != nil {
		return err
	}
	v, err := variant(osName)
	if err != nil {
		return err
	}
	var counter trace.Counter
	// Publish the live counts pull-style so a -serve scrape watches the
	// generation advance; the per-service-class OS counters come from
	// SetMetrics below.
	reg.CounterFunc("tracegen.references", "trace records generated",
		func() uint64 { return counter.Total })

	sinks := trace.Tee{&counter}
	var w *trace.Writer
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if w, err = trace.NewWriter(f); err != nil {
			return err
		}
		sinks = append(sinks, w)
	}
	sys := osmodel.NewSystem(v, spec)
	sys.SetMetrics(reg)
	var gen osmodel.GenStats
	interrupted := false
	span := lane.Start("generate")
	for done := 0; done < refs; {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		n := refs - done
		if n > genChunk {
			n = genChunk
		}
		chunk := lane.Start("generate.chunk")
		gen = sys.Run(n, sinks)
		chunk.End()
		done += n
	}
	span.End()
	// Flush even on interrupt so the partial trace file is well-formed
	// and replayable (the header is written up front; records are
	// fixed-width, so any flushed prefix parses cleanly).
	if w != nil {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "tracegen: interrupted after %d of %d refs; partial trace is valid\n",
			counter.Total, refs)
		return ctx.Err()
	}
	fmt.Printf("%s under %s: %d refs (%d ifetch, %d load, %d store), %d instrs, %d OS calls\n",
		spec.Name, v, counter.Total,
		counter.ByKind[trace.IFetch], counter.ByKind[trace.Load], counter.ByKind[trace.Store],
		gen.Instrs, gen.Calls)
	fmt.Printf("time split: app %.0f%%, kernel %.0f%%, bsd %.0f%%, x %.0f%%\n",
		gen.AppPct(), gen.KernelPct(), gen.BSDPct(), gen.XPct())
	return nil
}

func statFile(path string, skipCorrupt bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	r.SkipCorrupt = skipCorrupt
	var c trace.Counter
	n, err := r.Drain(&c)
	if err != nil {
		var ce *trace.CorruptError
		if errors.As(err, &ce) {
			return fmt.Errorf("%w (rerun with -skip-corrupt to skip bad records)", ce)
		}
		return err
	}
	fmt.Printf("%s: %d records (%d ifetch, %d load, %d store; %d user, %d kernel)\n",
		path, n, c.ByKind[trace.IFetch], c.ByKind[trace.Load], c.ByKind[trace.Store],
		c.ByMode[trace.User], c.ByMode[trace.Kernel])
	if skipped := r.Corrupt(); skipped > 0 {
		fmt.Printf("  skipped %d corrupt record(s)\n", skipped)
	}
	return nil
}
