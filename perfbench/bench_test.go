package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"oassis/internal/synth"
)

// Smoke runs of every workload at a tiny scale: the output checks pass,
// every metric is reported, and the exact counts repeat for one seed and
// move with another.

func tinyMine(seed int64) mineConfig {
	c := mineConfig{crowds: 2, sample: 3, setups: 2, seed: seed}
	for _, base := range []synth.DomainConfig{synth.Travel, synth.SelfTreatment} {
		base.Members, base.Patterns = 8, 4
		c.domains = append(c.domains, base)
	}
	return c
}

func tinyFleet(seed int64) fleetConfig {
	return fleetConfig{tenants: 2, shards: 2, members: 4, panelMembers: 1, panelMax: 4,
		panelSpec: 2, sessions: 40, setups: 3, warmup: 50 * time.Millisecond, seed: seed}
}

func tinyHTTP(seed int64) httpConfig {
	return httpConfig{tenants: 2, shards: 2, sessions: 16, killAt: 40 + int(seed), warmup: 20, setups: 1, seed: seed}
}

// check fails the test on failed operations, a missing metric or a
// missing span file.
func check(t *testing.T, o options, rep *report) {
	t.Helper()
	for _, p := range rep.problems {
		t.Errorf("check failed: %s", p)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
	}
	for name := range e2eUnits {
		if rep.e2e[name] <= 0 {
			t.Errorf("end-to-end %s = %v, want > 0", name, rep.e2e[name])
		}
	}
	if rep.layer["trace.spans"] <= 0 {
		t.Errorf("traced run recorded no spans")
	}
	if fi, err := os.Stat(o.spans); err != nil || fi.Size() == 0 {
		t.Errorf("span file %s missing or empty (%v)", o.spans, err)
	}
}

// exactCounts are the figures that must repeat bit for bit for one seed.
func exactCounts(rep *report) [4]float64 {
	return [4]float64{rep.e2e["crowd_questions"], rep.layer["assign.nodes_generated"],
		rep.layer["aggregate.answers_per_question"], rep.layer["store.records_per_answer"]}
}

func TestMineDomainsTiny(t *testing.T) {
	o := options{seconds: 0, trace: true, spans: filepath.Join(t.TempDir(), "spans.tsv")}
	var counts [][4]float64
	for _, seed := range []int64{1, 1, 2} {
		o.seed = seed
		rep, err := runMine(o, tinyMine(seed))
		if err != nil {
			t.Fatal(err)
		}
		check(t, o, rep)
		counts = append(counts, exactCounts(rep))
	}
	if counts[0] != counts[1] {
		t.Errorf("seed 1 gave %v then %v", counts[0], counts[1])
	}
	if counts[0] == counts[2] {
		t.Errorf("seeds 1 and 2 gave the same counts %v", counts[0])
	}
}

func TestServeFleetTiny(t *testing.T) {
	o := options{seconds: 200 * time.Millisecond, trace: true, spans: filepath.Join(t.TempDir(), "spans.tsv")}
	var counts [][4]float64
	for _, seed := range []int64{1, 1, 2} {
		o.seed = seed
		rep, err := runFleet(o, tinyFleet(seed))
		if err != nil {
			t.Fatal(err)
		}
		check(t, o, rep)
		counts = append(counts, exactCounts(rep))
	}
	if counts[0] != counts[1] {
		t.Errorf("seed 1 gave %v then %v", counts[0], counts[1])
	}
	if counts[0] == counts[2] {
		t.Errorf("seeds 1 and 2 gave the same counts %v", counts[0])
	}
}

func TestServeHTTPWALTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "oassis-server")
	if out, err := exec.Command("go", "build", "-C", "..", "-o", bin, "./cmd/oassis-server").CombinedOutput(); err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	o := options{seconds: time.Second, trace: true, server: bin, workdir: dir, spans: filepath.Join(dir, "spans.tsv")}
	var counts [][4]float64
	for _, seed := range []int64{1, 1, 2} {
		o.seed = seed
		rep, err := runHTTP(o, tinyHTTP(seed))
		if err != nil {
			t.Fatal(err)
		}
		check(t, o, rep)
		if got, want := rep.layer["store.recovered_answers"], float64(tinyHTTP(seed).killAt); got != want {
			t.Errorf("recovered %v answers, want %v", got, want)
		}
		counts = append(counts, exactCounts(rep))
	}
	if counts[0] != counts[1] {
		t.Errorf("seed 1 gave %v then %v", counts[0], counts[1])
	}
	if counts[0] == counts[2] {
		t.Errorf("seeds 1 and 2 gave the same counts %v", counts[0])
	}
}

// The serving workloads check sessions against MSPs found by brute force
// over the lattice. The engine's sequential driver must reach them with one
// member (as over HTTP) and with eight (as in-process), and the catalog's
// crowds must differ.
func TestReferenceMatchesBruteForce(t *testing.T) {
	vs := fleetVariants(7)[:256]
	distinct := map[string]bool{}
	for _, members := range []int{1, 8} {
		_, ref, wrong, err := fleetReference(vs, members)
		if err != nil {
			t.Fatal(err)
		}
		if len(wrong) > 0 {
			t.Errorf("%d members: core.Run misses the brute-force MSPs on variants %v", members, wrong)
		}
		for _, e := range ref {
			distinct[e.msps] = true
		}
	}
	if len(distinct) < 16 {
		t.Errorf("256 variants mine only %d distinct MSP sets", len(distinct))
	}
}

func TestClassifyStack(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "oassis/internal/assign.(*Space).emitCand", "oassis/internal/core.(*engine).descend"}, "assign"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Fsync", "os.(*File).Sync", "oassis/internal/store.(*Store).append", "main.(*server).handleAnswer"}, "store"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"oassis/internal/fact.Set.Key", "main.(*server).handleQuestion"}, "http"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "sched"},
	}
	for _, c := range cases {
		if got := classify(c.frames, "http"); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
