// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload for a timed window, checks
// the program's outputs, and prints one JSON result line last:
//
//	perfbench --workload mine-domains --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of an untraced
// window; with --trace 1 the same workload runs an untraced and then a
// traced window, the metrics are the per-layer ones, and the traced
// window's spans are written to <out>/spans-<workload>.tsv.gz. README.md
// in this directory documents the workloads, the metrics and how to read
// them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	server   string // oassis-server binary (serve-http-wal)
	workdir  string // scratch directory for store dirs (serve-http-wal)
	spans    string // file the traced window's spans are written to
}

// e2eUnits lists every end-to-end metric, printed with --trace 0.
var e2eUnits = map[string]string{
	"answers_per_s":     "1/s",
	"rtt_p50_us":        "us",
	"rtt_p90_us":        "us",
	"open_p50_us":       "us",
	"cpu_us_per_answer": "us",
	"crowd_questions":   "count",
	"setup_s":           "s",
	"peak_rss_mb":       "MB",
}

// layerUnits lists every per-layer metric, printed with --trace 1. A row
// a workload does not exercise reads 0.
var layerUnits = map[string]string{
	"driver.rtt_samples":             "count",
	"driver.rtt_p99_us":              "us",
	"trace.spans":                    "count",
	"trace.overhead_share":           "ratio",
	"core.next_p50_us":               "us",
	"core.next_p99_us":               "us",
	"core.submit_p50_us":             "us",
	"core.submit_p99_us":             "us",
	"core.open_questions_mean":       "count",
	"core.speculative_used_share":    "ratio",
	"assign.nodes_generated":         "count",
	"aggregate.answers_per_question": "ratio",
	"oassisql.parse_p50_us":          "us",
	"plan.compile_cold_ms":           "ms",
	"plan.cache_hit_share":           "ratio",
	"panel.items_per_poll":           "count",
	"panel.poll_p50_us":              "us",
	"serve.poll_p50_us":              "us",
	"serve.poll_p99_us":              "us",
	"serve.answer_p50_us":            "us",
	"serve.answer_p99_us":            "us",
	"serve.empty_poll_share":         "ratio",
	"serve.no_pending_share":         "ratio",
	"serve.kb_per_session":           "KiB",
	"serve.goroutines_peak":          "count",
	"store.records_per_answer":       "ratio",
	"store.fsyncs_per_answer":        "ratio",
	"store.wal_bytes_per_answer":     "B",
	"store.recovered_answers":        "count",
	"store.recovery_s":               "s",
	"store.recovery_mb_per_s":        "MB/s",
	"http.query_p50_us":              "us",
	"http.question_p50_us":           "us",
	"http.question_p99_us":           "us",
	"http.answer_p50_us":             "us",
	"http.answer_p99_us":             "us",
	"http.wait_replies":              "count",
	"gc.cpu_share":                   "ratio",
	"gc.bytes_per_answer":            "B",
	"gc.allocs_per_answer":           "count",
	"gc.pause_p99_us":                "us",
	"sched.latency_p99_us":           "us",
}

// spanLayers are the layers the benchmark records spans for; each gets a
// self-time row. The plan and panel layers run inside serve and core
// calls that a span cannot split; their cpu_share rows measure them.
var spanLayers = []string{"oassisql", "core", "aggregate", "serve", "http"}

func init() {
	for _, l := range spanLayers {
		layerUnits[l+".self_us_per_answer"] = "us"
	}
	for _, l := range profileLayers {
		layerUnits[l+".cpu_share"] = "ratio"
	}
	// gc.cpu_share comes from runtime/metrics in-process and from the
	// server's profile for serve-http-wal; sched has its own guard row.
}

// selfRows turns span self times into per-answer rows.
func selfRows(l map[string]float64, a analysis, answers int64) {
	if answers == 0 {
		return
	}
	for _, layer := range spanLayers {
		l[layer+".self_us_per_answer"] = float64(a.self[layer].Nanoseconds()) / 1e3 / float64(answers)
	}
}

// profileRows turns a CPU profile into per-layer CPU-share rows.
func profileRows(l map[string]float64, prof []byte, mainLayer string) error {
	shares, err := splitProfile(prof, mainLayer)
	if err != nil {
		return err
	}
	for _, layer := range profileLayers {
		if layer == "gc" {
			if _, ok := l["gc.cpu_share"]; ok {
				continue // runtime/metrics already gave it
			}
		}
		l[layer+".cpu_share"] = shares[layer]
	}
	return nil
}

func main() {
	var o options
	var seconds, trace int
	var out string
	flag.StringVar(&o.workload, "workload", "", "mine-domains | serve-fleet | serve-http-wal")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = add a traced window and print the per-layer metrics")
	flag.StringVar(&o.server, "server", ".bench_build/bin/oassis-server", "oassis-server binary")
	flag.StringVar(&out, "out", ".bench_build", "directory for store directories (under work/) and span files")
	flag.Parse()
	o.workdir = filepath.Join(out, "work")
	o.spans = filepath.Join(out, "spans-"+o.workload+".tsv.gz")
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	var rep *report
	var err error
	switch o.workload {
	case "mine-domains":
		rep, err = runMine(o, defaultMineConfig(o.seed))
	case "serve-fleet":
		rep, err = runFleet(o, defaultFleetConfig(o.seed))
	case "serve-http-wal":
		rep, err = runHTTP(o, defaultHTTPConfig(o.seed))
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", o.workload, p)
	}
	if err := printResult(rep, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// printResult writes the result line: the end-to-end metrics, or with
// trace the per-layer ones, every listed name present.
func printResult(rep *report, trace bool) error {
	units, values := e2eUnits, rep.e2e
	if trace {
		units, values = layerUnits, rep.layer
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.Metrics[n] = metric{Value: values[n], Unit: units[n]}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
		res.Correct = false
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
