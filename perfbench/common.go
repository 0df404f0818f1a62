package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run produces: the end-to-end figures of the
// untraced window, the per-layer figures of the traced one (when traced),
// and the operation ledger. A failed output check is a failed operation.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed operation with its reason (the first few reasons
// are printed to stderr).
func (r *report) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// samples collects durations in nanoseconds for percentiles.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// quantile returns the q-quantile in microseconds (nearest rank on the
// sorted samples), 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(c[i]) / 1e3
}

// median of a non-empty float slice.
func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// cpuTime is the user+sys CPU time of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the user+sys CPU time of another process, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB is VmHWM of the process (pid 0 = self) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// rtMetrics reads the runtime/metrics the gc.* and sched.* rows come
// from: cumulative GC CPU, total CPU, heap allocation counters and the
// GC-pause and scheduling-latency histograms.
type rtMetrics struct {
	gcCPU, totalCPU     float64
	allocBytes, allocs  uint64
	pauses, schedLatens *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

func readRT() rtMetrics {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtMetrics{
		gcCPU:       s[0].Value.Float64(),
		totalCPU:    s[1].Value.Float64(),
		allocBytes:  s[2].Value.Uint64(),
		allocs:      s[3].Value.Uint64(),
		pauses:      s[4].Value.Float64Histogram(),
		schedLatens: s[5].Value.Float64Histogram(),
	}
}

// histQuantile is the q-quantile in microseconds of the counts added to
// histogram b since a (same bucket layout), at the upper bucket bound.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	diff := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		diff[i] = b.Counts[i] - a.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range diff {
		seen += c
		if seen >= want {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// gcRows fills the gc.* and sched.* rows for an in-process window that
// handled the given number of answers.
func gcRows(layer map[string]float64, a, b rtMetrics, answers int64) {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		layer["gc.cpu_share"] = (b.gcCPU - a.gcCPU) / d
	}
	if answers > 0 {
		layer["gc.bytes_per_answer"] = float64(b.allocBytes-a.allocBytes) / float64(answers)
		layer["gc.allocs_per_answer"] = float64(b.allocs-a.allocs) / float64(answers)
	}
	layer["gc.pause_p99_us"] = histQuantile(a.pauses, b.pauses, 0.99)
	layer["sched.latency_p99_us"] = histQuantile(a.schedLatens, b.schedLatens, 0.99)
}

// phase prints to standard error how long a part of the run took, so a
// slow run shows where its time went.
func phase(name string, t0 time.Time) {
	fmt.Fprintf(os.Stderr, "perfbench: %s took %.1fs\n", name, time.Since(t0).Seconds())
}

// settle collects garbage left by set-up so that every timed window
// starts from the same heap state.
func settle() { runtime.GC() }

// digest is a short content hash of a set of strings (order-insensitive).
func digest(items []string) string {
	c := append([]string(nil), items...)
	sort.Strings(c)
	h := sha256.New()
	for _, s := range c {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// slices cuts a window into consecutive slices. Each end-to-end figure
// is the median over the slices, so a burst of interference from outside
// the process moves one slice rather than the figure.
// sliceLen is the length of a slice of a time-bounded window.
const sliceLen = 500 * time.Millisecond

type slices struct {
	at  []time.Time
	ans []int64
	cpu []time.Duration
	rtt []int // number of round-trip samples taken at the cut
}

func (s *slices) cut(answers int64, cpu time.Duration, rtts int) {
	s.at = append(s.at, time.Now())
	s.ans = append(s.ans, answers)
	s.cpu = append(s.cpu, cpu)
	s.rtt = append(s.rtt, rtts)
}

// each applies f to every slice and returns the median of the results.
func (s *slices) each(f func(i int) float64) float64 {
	var v []float64
	for i := 1; i < len(s.at); i++ {
		if s.ans[i] > s.ans[i-1] {
			v = append(v, f(i))
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func (s *slices) answersPerS() float64 {
	return s.each(func(i int) float64 {
		return float64(s.ans[i]-s.ans[i-1]) / s.at[i].Sub(s.at[i-1]).Seconds()
	})
}

func (s *slices) cpuPerAnswer() float64 {
	return s.each(func(i int) float64 {
		return float64((s.cpu[i] - s.cpu[i-1]).Microseconds()) / float64(s.ans[i]-s.ans[i-1])
	})
}

func (s *slices) rttQuantile(rtt samples, q float64) float64 {
	return s.each(func(i int) float64 { return rtt[s.rtt[i-1]:s.rtt[i]].quantile(q) })
}
