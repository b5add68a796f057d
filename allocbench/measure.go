package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// opTimer brackets the timed part of one operation: host wall seconds,
// process CPU seconds (user+sys of every thread, getrusage self), and
// bytes the Go runtime allocated (TotalAlloc delta).
type opTimer struct {
	t0        time.Time
	cpu0      float64
	alloc0    uint64
	end       time.Time
	wall, cpu float64
	allocMB   float64
}

func (t *opTimer) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.alloc0 = ms.TotalAlloc
	t.cpu0 = cpuSeconds()
	t.t0 = time.Now()
}

func (t *opTimer) stop() {
	t.end = time.Now()
	t.wall = t.end.Sub(t.t0).Seconds()
	t.cpu = cpuSeconds() - t.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.allocMB = float64(ms.TotalAlloc-t.alloc0) / 1e6
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
