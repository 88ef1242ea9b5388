package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"arrayvers/internal/core"
)

var nan = math.NaN()

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqm is the interquartile mean: the mean of the middle half of xs.
// Unlike the median it does not jump between the modes of a bimodal
// sample, and unlike the mean it ignores stray outliers.
func iqm(xs []float64) float64 {
	s := sorted(xs)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

// tail returns the highest percentile that still has at least ten
// samples beyond it, and that percentile. With a fixed sample count n
// it is always the sample of rank n-10 (the maximum when n <= 10).
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// slicedTail splits xs, in the order measured, into consecutive slices
// of n samples (dropping a short remainder) and returns the median of
// the slices' tails and the percentile each slice's tail is. The median
// over slices keeps one stall or slow spell of the host from setting
// the whole run's tail.
func slicedTail(xs []float64, n int) (value, pct float64) {
	if n <= 0 || n > len(xs) {
		n = len(xs)
	}
	var tails []float64
	for i := 0; i+n <= len(xs); i += n {
		v, p := tail(xs[i : i+n])
		tails = append(tails, v)
		pct = p
	}
	return median(tails), pct
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// div is a/b, or 0 when b is 0 (a layer the workload does not reach).
func div(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// storeCounters are the store's exported I/O, cache, kernel and manifest
// counters the per-layer metrics read, by name.
var storeCounters = map[string]func(core.IOStats) int64{
	"cache_hits":         func(s core.IOStats) int64 { return s.CacheHits },
	"cache_misses":       func(s core.IOStats) int64 { return s.CacheMisses },
	"cache_evictions":    func(s core.IOStats) int64 { return s.CacheEvictions },
	"cache_rejected":     func(s core.IOStats) int64 { return s.CacheRejected },
	"kernel_ops":         func(s core.IOStats) int64 { return s.KernelBatchedOps },
	"bytes_read":         func(s core.IOStats) int64 { return s.BytesRead },
	"chunks_read":        func(s core.IOStats) int64 { return s.ChunksRead },
	"mmap_reads":         func(s core.IOStats) int64 { return s.MmapReads },
	"bytes_written":      func(s core.IOStats) int64 { return s.BytesWritten },
	"manifest_records":   func(s core.IOStats) int64 { return s.ManifestRecords },
	"manifest_appends":   func(s core.IOStats) int64 { return s.ManifestAppends },
	"manifest_fsyncs":    func(s core.IOStats) int64 { return s.ManifestFsyncs },
	"manifest_rotations": func(s core.IOStats) int64 { return s.ManifestRotations },
}

// readCounters reads, at one instant, the counters the program already
// exports: Store.Stats(), the Store.Profile() stage totals (seconds,
// as "select.<stage>" and "commit.<stage>"), and the Go runtime's
// allocation and CPU totals.
func readCounters(s *core.Store) map[string]float64 {
	c := make(map[string]float64, len(storeCounters)+16)
	st := s.Stats()
	for name, f := range storeCounters {
		c[name] = float64(f(st))
	}
	prof := s.Profile()
	for _, sp := range prof.SelectStages {
		c["select."+sp.Stage] = sp.Hist.Sum
	}
	for _, sp := range prof.CommitStages {
		c["commit."+sp.Stage] = sp.Hist.Sum
	}
	rs := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(rs)
	for _, r := range rs {
		switch r.Value.Kind() {
		case metrics.KindUint64:
			c[r.Name] = float64(r.Value.Uint64())
		case metrics.KindFloat64:
			c[r.Name] = r.Value.Float64()
		}
	}
	return c
}

// window accumulates counter growth over the measured parts of a phase
// (a phase may span several store instances across reopens) and how
// many operations of the phase's kind ran.
type window struct {
	delta     map[string]float64
	ops       int
	userBytes int64
}

// add accumulates the growth from before to after.
func (w *window) add(before, after map[string]float64) {
	if w.delta == nil {
		w.delta = map[string]float64{}
	}
	for k, v := range after {
		w.delta[k] += v - before[k]
	}
}

func (w *window) get(name string) float64 { return w.delta[name] }

func (w *window) perOp(name string) float64 { return div(w.delta[name], float64(w.ops)) }
