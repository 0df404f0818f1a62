package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serve-http-wal: the oassis-server binary as a subprocess with a durable
// fleet file (every tenant has a store directory, so every answer is
// journaled and fsynced), driven over loopback by one keep-alive client.
// Sessions of the NYC query variants open via POST /t/{t}/api/query; each
// tenant has a single roster member, so every live session always has a
// question pending for the one member the client plays and a long poll
// never waits. The server is killed with SIGKILL between two requests at
// a seeded answer count, restarted on the same directories, and the timed
// window runs on the recovered server; the tail is drained untimed and
// every session's outcome is checked.

type httpConfig struct {
	tenants, shards int
	sessions        int // live sessions; a finished one is replaced
	killAt          int // acknowledged answers before the kill
	warmup          int // answers on the restarted server before the window
	setups          int // set-up repetitions in each of three batches
	seed            int64
}

func defaultHTTPConfig(seed int64) httpConfig {
	return httpConfig{tenants: 2, shards: 4, sessions: 256,
		killAt: 2000 + int(uint64(seed)%512), warmup: 1000, setups: 7, seed: seed}
}

// server is one running oassis-server process; a goroutine reaps it and
// closes exited.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// kill stops the process with SIGKILL and waits until it is reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.exited
}

// stop shuts the server down gracefully (SIGTERM: drain, flush stores).
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-s.exited
		return err
	}
	select {
	case <-s.exited:
		return s.err
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("server did not stop within 30s")
	}
}

type httpDriver struct {
	cfg      httpConfig
	o        options
	rep      *report
	dir      string // store root and logs
	fleet    string // fleet file
	client   *http.Client
	srv      *server
	variants []variant
	crowd    *hashCrowd
	ref      []expected // one-member reference per variant

	tenants   []string
	member    []string
	done      []bool
	sessVar   []map[string]int // per tenant: session ID -> variant
	remaining []map[string]int // per tenant: answers still due per live session
	next      int              // sessions opened so far; session j runs variant j mod V
	replace   bool             // open a replacement when a session finishes
	acked     int64            // answers acknowledged by the server
	waits     int64            // "wait" replies to a question poll
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches the server on the fleet file and returns once it
// answers; boot recovers every recorded session before it listens.
func (h *httpDriver) start(fleet string, debug bool) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-tenants", fleet, "-addr", fmt.Sprintf("127.0.0.1:%d", port)}
	if debug {
		args = append(args, "-debug")
	}
	logf, err := os.OpenFile(filepath.Join(h.dir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(h.o.server, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping the server, so does the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", h.o.server, err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := h.client.Get(s.base + "/api/tenants")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited during boot: %v (see %s)", s.err, filepath.Join(h.dir, "server.log"))
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server on %s not ready after 60s (see %s)", s.base, filepath.Join(h.dir, "server.log"))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// writeFleet writes a fleet file whose tenants keep their stores under
// root.
func (h *httpDriver) writeFleet(root string) (string, error) {
	type spec struct {
		Name    string `json:"name"`
		Members int    `json:"members"`
		Shards  int    `json:"shards"`
		K       int    `json:"k"`
		Store   string `json:"store"`
	}
	var specs []spec
	for _, t := range h.tenants {
		specs = append(specs, spec{Name: t, Members: 1, Shards: h.cfg.shards, K: 1, Store: filepath.Join(root, t)})
	}
	raw, err := json.Marshal(specs)
	if err != nil {
		return "", err
	}
	path := root + ".json"
	return path, os.WriteFile(path, raw, 0o644)
}

// call sends one request and decodes a 200 reply into out; any other
// status is an error carrying the body.
func (h *httpDriver) call(method, path string, body, out interface{}) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, h.srv.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// httpWindow is what one stretch of driving measured.
type httpWindow struct {
	answers               int64
	rtt, question, answer samples
	open                  samples
	openCuts              []int // number of open samples at each cut
	sl                    slices
	tr                    *tracer
}

// open posts a session for variant v to tenant ti.
func (h *httpDriver) open(ti, v int, w *httpWindow) error {
	var out struct {
		Session string `json:"session"`
	}
	t0 := time.Now()
	sp := w.tr.begin("http.POST /api/query")
	err := h.call("POST", "/t/"+h.tenants[ti]+"/api/query", map[string]string{"query": nycQuery(fleetSupports[h.variants[v].support])}, &out)
	w.tr.end(sp)
	if err != nil {
		return err
	}
	w.open.add(time.Since(t0))
	h.sessVar[ti][out.Session] = v
	h.remaining[ti][out.Session] = h.ref[v].questions
	h.next++
	return nil
}

// step is one round trip on tenant ti: poll the member's question and
// answer it from the hash crowd.
func (h *httpDriver) step(ti int, w *httpWindow) {
	w.tr.newTrip()
	h.rep.attempted++
	var q struct {
		Type    string `json:"type"`
		Session string `json:"session"`
		ID      int    `json:"id"`
		Text    string `json:"text"`
	}
	t0 := time.Now()
	sp := w.tr.begin("http.GET /api/question")
	err := h.call("GET", "/t/"+h.tenants[ti]+"/api/question?member="+h.member[ti], nil, &q)
	w.tr.end(sp)
	dq := time.Since(t0)
	if err != nil {
		h.rep.fail("%v", err)
		return
	}
	switch q.Type {
	case "done":
		h.done[ti] = true
		return
	case "wait":
		// The poll rode out the server's long-poll timeout.
		h.waits++
		h.rep.fail("%s: question poll waited with sessions live", h.tenants[ti])
		return
	case "concrete":
	default:
		h.rep.fail("%s: unexpected question type %q", h.tenants[ti], q.Type)
		return
	}
	v, ok := h.sessVar[ti][q.Session]
	if !ok {
		h.rep.fail("%s: question from unknown session %q", h.tenants[ti], q.Session)
		return
	}
	level, ok := h.crowd.level(h.variants, v, q.Text)
	if !ok {
		h.rep.fail("%s: question %q outside the lattice", h.tenants[ti], q.Text)
		return
	}
	t1 := time.Now()
	sp = w.tr.begin("http.POST /api/answer")
	err = h.call("POST", "/t/"+h.tenants[ti]+"/api/answer", map[string]interface{}{
		"member": h.member[ti], "session": q.Session, "id": q.ID, "level": level}, nil)
	w.tr.end(sp)
	da := time.Since(t1)
	if err != nil {
		h.rep.fail("%v", err)
		return
	}
	h.acked++
	w.answers++
	w.question.add(dq)
	w.answer.add(da)
	w.rtt.add(dq + da)
	h.remaining[ti][q.Session]--
	if h.remaining[ti][q.Session] == 0 {
		delete(h.remaining[ti], q.Session)
		if h.replace {
			if err := h.open(ti, h.next%len(h.variants), w); err != nil {
				h.rep.fail("open: %v", err)
			}
		}
	}
}

// drive runs round trips over the tenants in turn until stop says so or
// every tenant is done.
func (h *httpDriver) drive(w *httpWindow, stop func() bool) {
	for {
		live := false
		for ti := range h.tenants {
			if h.done[ti] {
				continue
			}
			if stop() {
				return
			}
			live = true
			h.step(ti, w)
		}
		if !live {
			return
		}
	}
}

// storeCounters reads the oassis_store_* counters from /metrics.
func (h *httpDriver) storeCounters() (records, fsyncs, walBytes float64, err error) {
	req, err := http.NewRequest("GET", h.srv.base+"/metrics", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) != 2 || bytes.HasPrefix(line, []byte("#")) {
			continue
		}
		v, perr := strconv.ParseFloat(string(f[1]), 64)
		if perr != nil {
			continue
		}
		name := string(f[0])
		switch {
		case bytes.HasPrefix(f[0], []byte("oassis_store_records_appended_total")):
			records += v
		case name == "oassis_store_fsyncs_total":
			fsyncs += v
		case name == "oassis_store_wal_bytes_total":
			walBytes += v
		}
	}
	return records, fsyncs, walBytes, nil
}

// memstats reads the server's runtime.MemStats fields the gc rows need
// from /debug/vars.
type memstats struct {
	TotalAlloc, Mallocs uint64
	NumGC               uint32
	PauseNs             [256]uint64
}

func (h *httpDriver) memstats() (memstats, error) {
	var out struct {
		Memstats memstats `json:"memstats"`
	}
	err := h.call("GET", "/debug/vars", nil, &out)
	return out.Memstats, err
}

// serverGCRows fills the gc rows of a server window from two memstats
// reads (pauses: the ones recorded in the ring between them).
func serverGCRows(l map[string]float64, a, b memstats, answers int64) {
	if answers > 0 {
		l["gc.bytes_per_answer"] = float64(b.TotalAlloc-a.TotalAlloc) / float64(answers)
		l["gc.allocs_per_answer"] = float64(b.Mallocs-a.Mallocs) / float64(answers)
	}
	var p samples
	for n := a.NumGC + 1; n <= b.NumGC && b.NumGC-n < 256; n++ {
		p = append(p, int64(b.PauseNs[(n+255)%256]))
	}
	l["gc.pause_p99_us"] = p.quantile(0.99)
}

// window drives for d on the live population, timing slices; the CPU
// of each slice is the server's.
func (h *httpDriver) window(d time.Duration, traced bool) (*httpWindow, error) {
	w := &httpWindow{tr: newTracer(traced)}
	var err error
	cut := func() {
		cpu, cerr := procCPU(h.srv.pid())
		if cerr != nil && err == nil {
			err = cerr
		}
		w.sl.cut(w.answers, cpu, len(w.rtt))
		w.openCuts = append(w.openCuts, len(w.open))
	}
	start := time.Now()
	cut()
	h.drive(w, func() bool {
		since := time.Since(start)
		if since >= d {
			return true
		}
		// Slices of one second, each with about a hundred samples beyond
		// its p90; the p99 is taken over the whole window.
		if since >= time.Duration(len(w.sl.at))*time.Second {
			cut()
		}
		return false
	})
	cut()
	return w, err
}

// openP50 is the median over the window's slices of their median open
// time (slices without an open left out).
func (w *httpWindow) openP50() float64 {
	var v []float64
	for i := 1; i < len(w.openCuts); i++ {
		if w.openCuts[i] > w.openCuts[i-1] {
			v = append(v, w.open[w.openCuts[i-1]:w.openCuts[i]].quantile(0.5))
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// du sums the sizes of the regular files under dir.
func du(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

func runHTTP(o options, cfg httpConfig) (*report, error) {
	// The client is a load generator with one goroutine: one P and a lazy
	// GC keep it from taking the server's CPUs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	rep := newReport()
	h := &httpDriver{cfg: cfg, o: o, rep: rep, variants: fleetVariants(cfg.seed),
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: 2, DisableCompression: true}}}
	defer h.client.CloseIdleConnections()
	if _, err := os.Stat(o.server); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if h.dir, err = os.MkdirTemp(o.workdir, "http-wal-"); err != nil {
		return nil, err
	}
	// The run's store directories stay: deleting thousands of fsynced files
	// slows the file creations of the runs that follow. run.sh removes the
	// work directory once 64 runs have piled up.
	for t := 0; t < cfg.tenants; t++ {
		h.tenants = append(h.tenants, fmt.Sprintf("t%d", t))
	}
	t0 := time.Now()
	crowd, ref, wrong, err := fleetReference(h.variants, 1)
	if err != nil {
		return nil, err
	}
	phase("references", t0)
	h.crowd, h.ref = crowd, ref
	rep.attempted += int64(len(ref))
	for _, v := range wrong {
		rep.fail("variant %d: core.Run misses the brute-force MSPs", v)
	}

	defer func() {
		if h.srv != nil {
			h.srv.kill()
		}
	}()

	// Set-up: a fresh server on empty store directories, start to ready.
	// The repetitions come in three batches, before the run, after the
	// recovery and after the timed window, so that their median does not
	// rest on one moment of the disk; the first batch's last server serves
	// the run, the others are stopped at once.
	var setups []float64
	setupBatch := func(keep bool) error {
		for i := 0; i < cfg.setups; i++ {
			fleet, err := h.writeFleet(filepath.Join(h.dir, fmt.Sprintf("fleet-%d", len(setups))))
			if err != nil {
				return err
			}
			t0 := time.Now()
			s, err := h.start(fleet, false)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			if keep && i == cfg.setups-1 {
				h.srv, h.fleet = s, fleet
				continue
			}
			s.kill()
		}
		return nil
	}
	if err := setupBatch(true); err != nil {
		return nil, err
	}

	pre := &httpWindow{tr: newTracer(false)}
	h.done = make([]bool, cfg.tenants)
	for _, t := range h.tenants {
		var out struct {
			Member string `json:"member"`
		}
		if err := h.call("POST", "/t/"+t+"/api/join", map[string]string{"name": "crowd"}, &out); err != nil {
			return nil, err
		}
		h.member = append(h.member, out.Member)
		h.sessVar = append(h.sessVar, map[string]int{})
		h.remaining = append(h.remaining, map[string]int{})
	}
	// Session j goes to tenant j mod T and runs variant j mod V; a
	// finished session is replaced by the next j on its tenant.
	h.replace = true
	for j := 0; j < cfg.sessions; j++ {
		if err := h.open(j%cfg.tenants, h.next%len(h.variants), pre); err != nil {
			return nil, err
		}
	}
	r0, f0, b0, err := h.storeCounters()
	if err != nil {
		return nil, err
	}
	h.drive(pre, func() bool { return h.acked >= int64(cfg.killAt) })
	r1, f1, b1, err := h.storeCounters()
	if err != nil {
		return nil, err
	}
	walOnDisk, err := du(strings.TrimSuffix(h.fleet, ".json"))
	if err != nil {
		return nil, err
	}
	// As in serve-fleet, the exact count is the variant catalog's.
	questions := 0
	for _, e := range h.ref {
		questions += e.questions
	}
	rep.e2e["crowd_questions"] = float64(questions)

	// The server's peak RSS is read after the fixed pre-kill work, so it
	// does not depend on how much the timed window got done.
	if rep.e2e["peak_rss_mb"], err = peakRSSMB(h.srv.pid()); err != nil {
		return nil, err
	}

	// kill -9 between two requests, restart on the same directories.
	tKill := time.Now()
	h.srv.kill()
	h.srv = nil
	srv, err := h.start(h.fleet, o.trace)
	if err != nil {
		return nil, err
	}
	recovery := time.Since(tKill)
	h.srv = srv
	if err := setupBatch(false); err != nil {
		return nil, err
	}
	recovered := h.credited()
	rep.attempted++
	if recovered != h.acked {
		rep.fail("recovered %d answers, %d were acknowledged before the kill", recovered, h.acked)
	}

	h.drive(pre, func() bool { return h.acked >= int64(cfg.killAt+cfg.warmup) })
	w, err := h.window(o.seconds, false)
	if err != nil {
		return nil, err
	}
	rep.e2e["answers_per_s"] = w.sl.answersPerS()
	rep.e2e["rtt_p50_us"] = w.sl.rttQuantile(w.rtt, 0.5)
	rep.e2e["rtt_p90_us"] = w.sl.rttQuantile(w.rtt, 0.9)
	rep.e2e["open_p50_us"] = w.openP50()
	rep.e2e["cpu_us_per_answer"] = w.sl.cpuPerAnswer()
	if err := setupBatch(false); err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = median(setups)

	l := rep.layer
	if o.trace {
		l["driver.rtt_samples"] = float64(len(w.rtt))
		// The fsync tail sets the p99: over the whole window it rests on
		// a few hundred samples beyond it.
		l["driver.rtt_p99_us"] = w.rtt.quantile(0.99)
		l["store.records_per_answer"] = (r1 - r0) / float64(cfg.killAt)
		l["store.fsyncs_per_answer"] = (f1 - f0) / float64(cfg.killAt)
		l["store.wal_bytes_per_answer"] = (b1 - b0) / float64(cfg.killAt)
		l["store.recovered_answers"] = float64(recovered)
		l["store.recovery_s"] = recovery.Seconds()
		l["store.recovery_mb_per_s"] = float64(walOnDisk) / 1e6 / recovery.Seconds()
		l["http.query_p50_us"] = w.open.quantile(0.5)
		l["http.question_p50_us"] = w.question.quantile(0.5)
		l["http.question_p99_us"] = w.question.quantile(0.99)
		l["http.answer_p50_us"] = w.answer.quantile(0.5)
		l["http.answer_p99_us"] = w.answer.quantile(0.99)
		if err := h.tracedWindow(l, rep.e2e["answers_per_s"]); err != nil {
			return nil, err
		}
	}

	// Drain the tail untimed: no more replacements, every session runs to
	// completion, then every outcome is checked.
	h.replace = false
	h.drive(pre, func() bool { return false })
	l["http.wait_replies"] = float64(h.waits)
	if err := h.verify(); err != nil {
		return nil, err
	}
	if err := h.srv.stop(); err != nil {
		rep.fail("server shutdown: %v", err)
	}
	h.srv = nil
	return rep, nil
}

// tracedWindow runs the traced window while the server profiles itself.
func (h *httpDriver) tracedWindow(l map[string]float64, untraced float64) error {
	m0, err := h.memstats()
	if err != nil {
		return err
	}
	secs := int(h.o.seconds / time.Second)
	if secs < 1 {
		secs = 1
	}
	type profResult struct {
		raw []byte
		err error
	}
	profCh := make(chan profResult, 1)
	profClient := &http.Client{Timeout: time.Duration(secs+30) * time.Second}
	defer profClient.CloseIdleConnections()
	go func() {
		// The profile request blocks for the window on its own connection.
		resp, err := profClient.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", h.srv.base, secs))
		if err != nil {
			profCh <- profResult{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		profCh <- profResult{raw: raw, err: err}
	}()
	tw, err := h.window(time.Duration(secs)*time.Second, true)
	pr := <-profCh
	if err != nil {
		return err
	}
	m1, err := h.memstats()
	if err != nil {
		return err
	}
	serverGCRows(l, m0, m1, tw.answers)
	a := tw.tr.analyse()
	l["trace.spans"] = float64(len(tw.tr.spans))
	l["trace.overhead_share"] = 1 - tw.sl.answersPerS()/untraced
	selfRows(l, a, tw.answers)
	if pr.err != nil {
		h.rep.fail("server profile: %v", pr.err)
	} else if err := profileRows(l, pr.raw, "http"); err != nil {
		h.rep.fail("server profile: %v", err)
	}
	if err := tw.tr.write(h.o.spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// credited sums the leaderboard of every tenant: the counted answers the
// server holds.
func (h *httpDriver) credited() int64 {
	var n int64
	for _, t := range h.tenants {
		var rows []struct {
			Answers int64 `json:"answers"`
		}
		if err := h.call("GET", "/t/"+t+"/api/stats", nil, &rows); err != nil {
			h.rep.fail("stats: %v", err)
			continue
		}
		for _, r := range rows {
			n += r.Answers
		}
	}
	return n
}

// verify checks every session ever opened against its variant's
// reference (same MSPs, same number of crowd questions: nothing lost or
// counted twice across the kill) and the credited total against the
// acknowledged answers.
func (h *httpDriver) verify() error {
	for ti, t := range h.tenants {
		var res struct {
			Sessions []struct {
				Session   string   `json:"session"`
				Done      bool     `json:"done"`
				MSPs      []string `json:"msps"`
				Questions int      `json:"questions"`
			} `json:"sessions"`
		}
		if err := h.call("GET", "/t/"+t+"/api/results", nil, &res); err != nil {
			return err
		}
		if len(res.Sessions) != len(h.sessVar[ti]) {
			h.rep.fail("%s: %d sessions hosted, %d opened", t, len(res.Sessions), len(h.sessVar[ti]))
		}
		for _, s := range res.Sessions {
			h.rep.attempted++
			v, ok := h.sessVar[ti][s.Session]
			switch {
			case !ok:
				h.rep.fail("%s/%s: not opened by the client", t, s.Session)
				continue
			case !s.Done:
				h.rep.fail("%s/%s: did not finish", t, s.Session)
			case digest(s.MSPs) != h.ref[v].msps:
				h.rep.fail("%s/%s: MSPs differ from the brute-force reference", t, s.Session)
			case s.Questions != h.ref[v].questions:
				h.rep.fail("%s/%s: %d crowd questions, sequential engine %d", t, s.Session, s.Questions, h.ref[v].questions)
			}
		}
	}
	h.rep.attempted++
	if c := h.credited(); c != h.acked {
		h.rep.fail("credited %d answers, %d acknowledged", c, h.acked)
	}
	return nil
}
