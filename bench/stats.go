package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 from fewer than 1 000 samples is a guess about one or two runs.
const minBeyond = 10

// tailPerMille lists the percentiles a tail may be reported at, in
// thousandths, highest first.
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest listed percentile with at least
// minBeyond of n samples above it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, pm := range tailPerMille {
		if n-(pm*n+999)/1000 >= minBeyond {
			return float64(pm) / 10
		}
	}
	return 0
}

// quantile returns the p-quantile of sorted samples by the method of
// Python's statistics.quantiles, which the acceptance check uses: rank
// p·(n+1), interpolated between its neighbours, and extrapolated from the
// outermost pair beyond them.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	m := p * float64(n+1)
	j := min(max(int(m), 1), n-1)
	f := m - float64(j)
	return sorted[j-1]*(1-f) + sorted[j]*f
}

// latencies summarises one class of timings in milliseconds.
type latencies struct {
	N       int
	P50     float64
	Mean    float64
	Tail    float64 // the value at TailPct
	TailPct float64 // min(99, tailPercentile(N)); 50 when no tail qualifies
}

func summarise(ms []float64) latencies {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	l := latencies{N: len(s), P50: quantile(s, 0.5), Mean: mean(s)}
	l.TailPct = min(99, tailPercentile(len(s)))
	if l.TailPct == 0 {
		l.TailPct = 50
	}
	l.Tail = quantile(s, l.TailPct/100)
	return l
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM),
// falling back to the Go runtime's total reservation where /proc is
// unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runtimeCounters are cumulative Go runtime counters, read without
// stopping the world.
type runtimeCounters struct {
	gcCPU, usedCPU float64 // seconds
	allocBytes     uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU:      s[0].Value.Float64(),
		usedCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

// gcShare is the share of the CPU time used between two readings that
// went to garbage collection.
func gcShare(a, b runtimeCounters) float64 {
	used := b.usedCPU - a.usedCPU
	if used <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / used
}

// liveHeapMB collects garbage and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
