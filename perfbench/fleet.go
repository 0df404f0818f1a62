package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/serve"
)

// serve-fleet: one serve.Registry hosting thousands of live sessions of
// the NYC query variants (see hashcrowd.go), driven by one goroutine
// through Tenant.Poll/Answer with timeout 0; the last members of every
// roster use PollPanel/AnswerPanel instead. A finished session is
// checked, retired and replaced by a fresh one of the next variant, so
// the window sees a steady population, session opens happen inside it,
// and a run cycles through the whole variant catalog.

type fleetConfig struct {
	tenants, shards, members int
	panelMembers, panelMax   int // members per tenant that poll panels, and panel size
	panelSpec                int // TenantConfig.PanelSpeculation
	sessions                 int // live sessions
	setups                   int
	warmup                   time.Duration
	seed                     int64
}

func defaultFleetConfig(seed int64) fleetConfig {
	return fleetConfig{tenants: 4, shards: 4, members: 8, panelMembers: 2, panelMax: 4,
		panelSpec: 4, sessions: 2000, setups: 101, warmup: 2 * time.Second, seed: seed}
}

// fleetSess is one hosted session and the variant it runs.
type fleetSess struct {
	sess *serve.Session
	v    int
}

type fleetDriver struct {
	cfg      fleetConfig
	rep      *report
	met      *obs.Registry
	voc      *ontology.Sample
	tpl      *crowd.Templates
	hosts    []*serve.Tenant
	members  [][]string     // per tenant: joined member IDs
	live     [][]*obs.Gauge // per tenant, per shard: unfinished sessions
	sessions []map[string]*fleetSess
	variants []variant
	crowd    *hashCrowd
	ref      []expected
	next     int  // sessions opened so far; session j runs variant j mod V
	draining bool // finished sessions are no longer replaced
}

// fleetWindow is what one window measured.
type fleetWindow struct {
	answers, polls, empty   int64
	panelPolls, panelItems  int64
	noPending               int64
	rtt, poll, answer, open samples
	panelPoll, parse        samples
	goroutines              int
	sl                      slices
	rt0, rt1                rtMetrics
	tr                      *tracer
	prof                    []byte
}

// setupFleet is the program's own set-up: the registry, its tenants on
// the sample ontology, and the joined rosters.
func setupFleet(cfg fleetConfig) (*serve.Registry, *obs.Registry, *ontology.Sample, []*serve.Tenant, [][]string, error) {
	met := obs.NewRegistry()
	reg := serve.NewRegistry(serve.Config{Metrics: met})
	sample := ontology.NewSample()
	var hosts []*serve.Tenant
	var members [][]string
	for i := 0; i < cfg.tenants; i++ {
		t, err := reg.AddTenant(serve.TenantConfig{
			Name: fmt.Sprintf("t%d", i), Voc: sample.Voc, Onto: sample.Onto,
			Members: cfg.members, Shards: cfg.shards, AnswersPerQuestion: 1,
			PanelSpeculation: cfg.panelSpec,
		})
		if err != nil {
			reg.Close()
			return nil, nil, nil, nil, nil, err
		}
		var ids []string
		for m := 0; m < cfg.members; m++ {
			id, err := t.Join(fmt.Sprintf("driver-%02d", m))
			if err != nil {
				reg.Close()
				return nil, nil, nil, nil, nil, err
			}
			ids = append(ids, id)
		}
		hosts = append(hosts, t)
		members = append(members, ids)
	}
	return reg, met, sample, hosts, members, nil
}

// open parses the variant's query and opens a session for it; the time
// until its first questions are pending is an open sample.
func (f *fleetDriver) open(ti, v int, w *fleetWindow) error {
	t0 := time.Now()
	h := w.tr.begin("oassisql.Parse")
	q, err := oassisql.Parse(nycQuery(fleetSupports[f.variants[v].support]))
	w.tr.end(h)
	w.parse.add(time.Since(t0))
	if err != nil {
		return err
	}
	h = w.tr.begin("serve.Tenant.Open")
	sess, err := f.hosts[ti].Open(q)
	w.tr.end(h)
	if err != nil {
		return err
	}
	w.open.add(time.Since(t0))
	f.sessions[ti][sess.ID()] = &fleetSess{sess: sess, v: v}
	f.next++
	return nil
}

// answerOf is the hash crowd's answer to a served question; fs is nil
// when the question is not one the crowd can answer.
func (f *fleetDriver) answerOf(ti int, q serve.Question) (core.Answer, *fleetSess) {
	fs := f.sessions[ti][q.Session]
	if fs == nil || q.Kind != core.KindConcrete {
		return core.Answer{}, nil
	}
	lv, ok := f.crowd.level(f.variants, fs.v, f.tpl.Concrete(q.Facts))
	if !ok {
		return core.Answer{}, nil
	}
	return core.AnswerSupport(float64(lv) * 0.25), fs
}

// settled checks a session that finished on the driver's last answer
// against its variant's reference, then retires it and, unless the run
// is draining, opens a replacement.
func (f *fleetDriver) settled(ti int, id string, fs *fleetSess, w *fleetWindow) {
	f.rep.attempted++
	res, ok := fs.sess.Result()
	want := f.ref[fs.v]
	switch {
	case !ok:
		f.rep.fail("%s/%s: finished but no result", f.hosts[ti].Name(), id)
	case mspDigest(fs.sess.Space(), f.voc.Voc, res) != want.msps:
		f.rep.fail("%s/%s: MSPs differ from the brute-force reference", f.hosts[ti].Name(), id)
	case res.Stats.TotalQuestions != want.questions:
		f.rep.fail("%s/%s: %d crowd questions, sequential engine %d", f.hosts[ti].Name(), id, res.Stats.TotalQuestions, want.questions)
	}
	h := w.tr.begin("serve.Tenant.Retire")
	err := f.hosts[ti].Retire(id)
	w.tr.end(h)
	if err != nil {
		f.rep.fail("retire %s: %v", id, err)
	}
	delete(f.sessions[ti], id)
	if f.draining {
		return
	}
	if err := f.open(ti, f.next%len(f.variants), w); err != nil {
		f.rep.fail("open: %v", err)
	}
}

// drain runs the live sessions to completion without replacing them, so
// every session the run opened is checked. It is untimed.
func (f *fleetDriver) drain() {
	f.draining = true
	w := &fleetWindow{tr: newTracer(false)}
	deadline := time.Now().Add(60 * time.Second)
	for {
		live := 0
		for ti := range f.hosts {
			live += len(f.sessions[ti])
		}
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			f.rep.fail("%d sessions did not finish", live)
			return
		}
		for ti := range f.hosts {
			for mi := range f.members[ti] {
				f.turn(ti, mi, w)
			}
		}
	}
}

// turn is one member's round trip: poll (timeout 0) and, when a question
// or panel came back, answer it.
func (f *fleetDriver) turn(ti, mi int, w *fleetWindow) {
	t := f.hosts[ti]
	member := f.members[ti][mi]
	ctx := context.Background()
	w.tr.newTrip()
	w.polls++
	f.rep.attempted++
	panelTurn := mi >= f.cfg.members-f.cfg.panelMembers

	var fs *fleetSess
	var dPoll, dAns time.Duration
	var applied int
	var err error
	if panelTurn {
		t0 := time.Now()
		h := w.tr.begin("serve.Tenant.PollPanel")
		p, out, perr := t.PollPanel(ctx, member, f.cfg.panelMax, 0)
		w.tr.end(h)
		dPoll = time.Since(t0)
		if perr != nil || out != serve.OutcomeQuestion {
			f.emptyPoll(perr, w)
			return
		}
		w.panelPolls++
		w.panelItems += int64(len(p.Items))
		w.panelPoll.add(dPoll)
		answers := make([]serve.PanelAnswer, len(p.Items))
		for i, it := range p.Items {
			var a core.Answer
			a, fs = f.answerOf(ti, it.Question)
			if fs == nil {
				f.rep.fail("%s: unexpected panel item %+v", t.Name(), it.Question)
			}
			answers[i] = serve.PanelAnswer{ID: it.ID, Answer: a}
		}
		before := f.liveOf(ti, fs)
		t1 := time.Now()
		h = w.tr.begin("serve.Tenant.AnswerPanel")
		applied, err = t.AnswerPanel(p.Session, member, answers)
		w.tr.end(h)
		dAns = time.Since(t1)
		if err == nil && applied != len(answers) {
			f.rep.fail("%s: panel of %d applied %d", t.Name(), len(answers), applied)
		}
		f.afterAnswer(ti, p.Session, fs, before, err, w)
	} else {
		t0 := time.Now()
		h := w.tr.begin("serve.Tenant.Poll")
		q, out, perr := t.Poll(ctx, member, 0)
		w.tr.end(h)
		dPoll = time.Since(t0)
		if perr != nil || out != serve.OutcomeQuestion {
			f.emptyPoll(perr, w)
			return
		}
		var a core.Answer
		a, fs = f.answerOf(ti, q)
		if fs == nil {
			f.rep.fail("%s: unexpected question %+v", t.Name(), q)
		}
		applied = 1
		before := f.liveOf(ti, fs)
		t1 := time.Now()
		h = w.tr.begin("serve.Tenant.Answer")
		err = t.Answer(q.Session, member, q.ID, a)
		w.tr.end(h)
		dAns = time.Since(t1)
		f.afterAnswer(ti, q.Session, fs, before, err, w)
	}
	if err != nil {
		return
	}
	w.answers += int64(applied)
	w.poll.add(dPoll)
	w.answer.add(dAns)
	w.rtt.add(dPoll + dAns)
}

// liveOf reads the unfinished-session gauge of fs's shard.
func (f *fleetDriver) liveOf(ti int, fs *fleetSess) int64 {
	if fs == nil {
		return 0
	}
	return f.live[ti][fs.sess.Shard()].Value()
}

func (f *fleetDriver) emptyPoll(err error, w *fleetWindow) {
	if err != nil {
		// A shed (ErrOverloaded) or any other poll error is a failure:
		// one driver never has a poll parked.
		f.rep.fail("poll: %v", err)
		return
	}
	w.empty++
}

// afterAnswer books an answer's outcome; a session finishes only on an
// answer to it, so a drop in its shard's live gauge means it finished.
func (f *fleetDriver) afterAnswer(ti int, id string, fs *fleetSess, before int64, err error, w *fleetWindow) {
	if errors.Is(err, serve.ErrNoPending) {
		// The question was handed out by the poll just before.
		w.noPending++
		f.rep.fail("answer: %v", err)
		return
	}
	if err != nil {
		f.rep.fail("answer: %v", err)
		return
	}
	if fs != nil && f.liveOf(ti, fs) < before {
		f.settled(ti, id, fs, w)
	}
}

// window runs member turns round-robin over every tenant's roster for d.
func (f *fleetDriver) window(d time.Duration, traced bool) *fleetWindow {
	w := &fleetWindow{tr: newTracer(traced)}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			f.rep.fail("cpu profile: %v", err)
		}
	}
	w.rt0 = readRT()
	start := time.Now()
	w.sl.cut(0, cpuTime(), 0)
	for n := 1; ; n++ {
		for ti := range f.hosts {
			for mi := range f.members[ti] {
				f.turn(ti, mi, w)
			}
		}
		if n%64 == 0 {
			if g := runtime.NumGoroutine(); g > w.goroutines {
				w.goroutines = g
			}
			since := time.Since(start)
			if since >= d {
				break
			}
			if since >= time.Duration(len(w.sl.at))*sliceLen {
				w.sl.cut(w.answers, cpuTime(), len(w.rtt))
			}
		}
	}
	w.sl.cut(w.answers, cpuTime(), len(w.rtt))
	w.rt1 = readRT()
	if traced {
		pprof.StopCPUProfile()
		w.prof = prof.Bytes()
	}
	return w
}

func runFleet(o options, cfg fleetConfig) (*report, error) {
	rep := newReport()
	var setups []float64
	var f *fleetDriver
	for i := 0; i < cfg.setups; i++ {
		settle()
		t0 := time.Now()
		reg, met, sample, hosts, members, err := setupFleet(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			reg.Close()
			continue
		}
		defer reg.Close()
		f = &fleetDriver{cfg: cfg, rep: rep, met: met, voc: sample, tpl: crowd.NewTemplates(sample.Voc),
			hosts: hosts, members: members, variants: fleetVariants(cfg.seed)}
	}
	rep.e2e["setup_s"] = median(setups)
	for _, t := range f.hosts {
		var gs []*obs.Gauge
		for s := 0; s < cfg.shards; s++ {
			gs = append(gs, f.met.Gauge("oassis_serve_sessions_live", "unfinished sessions hosted on the shard",
				obs.L("tenant", t.Name()), obs.L("shard", strconv.Itoa(s))))
		}
		f.live = append(f.live, gs)
		f.sessions = append(f.sessions, map[string]*fleetSess{})
	}
	t0 := time.Now()
	crowd, ref, wrong, err := fleetReference(f.variants, cfg.members)
	if err != nil {
		return nil, err
	}
	phase("references", t0)
	f.crowd, f.ref = crowd, ref
	rep.attempted += int64(len(ref))
	for _, v := range wrong {
		rep.fail("variant %d: core.Run misses the brute-force MSPs", v)
	}
	questions := 0
	for _, e := range ref {
		questions += e.questions
	}

	// Open the fleet: session j goes to tenant j mod T and runs variant
	// j mod V; a finished session's replacement takes the next j, so the
	// run cycles through every variant on every tenant.
	var ms0, ms1 runtime.MemStats
	settle()
	runtime.ReadMemStats(&ms0)
	opening := &fleetWindow{tr: newTracer(false)}
	for j := 0; j < cfg.sessions; j++ {
		if err := f.open(j%cfg.tenants, f.next%len(f.variants), opening); err != nil {
			return nil, err
		}
	}
	settle()
	runtime.ReadMemStats(&ms1)
	kbPerSession := float64(ms1.HeapAlloc-ms0.HeapAlloc) / 1024 / float64(cfg.sessions)

	f.window(cfg.warmup, false)
	settle()
	w := f.window(o.seconds, false)
	rep.e2e["answers_per_s"] = w.sl.answersPerS()
	rep.e2e["rtt_p50_us"] = w.sl.rttQuantile(w.rtt, 0.5)
	rep.e2e["rtt_p90_us"] = w.sl.rttQuantile(w.rtt, 0.9)
	rep.e2e["open_p50_us"] = append(opening.open, w.open...).quantile(0.5)
	rep.e2e["cpu_us_per_answer"] = w.sl.cpuPerAnswer()
	rep.e2e["crowd_questions"] = float64(questions)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep.e2e["peak_rss_mb"] = rss
	if !o.trace {
		f.drain()
		return rep, nil
	}

	l := rep.layer
	gcRows(l, w.rt0, w.rt1, w.answers)
	l["driver.rtt_samples"] = float64(len(w.rtt))
	l["driver.rtt_p99_us"] = w.sl.rttQuantile(w.rtt, 0.99)
	l["serve.kb_per_session"] = kbPerSession
	l["serve.empty_poll_share"] = float64(w.empty) / float64(w.polls)
	l["serve.no_pending_share"] = float64(w.noPending) / float64(w.polls)
	l["serve.poll_p50_us"] = w.poll.quantile(0.5)
	l["serve.poll_p99_us"] = w.poll.quantile(0.99)
	l["serve.answer_p50_us"] = w.answer.quantile(0.5)
	l["serve.answer_p99_us"] = w.answer.quantile(0.99)
	l["oassisql.parse_p50_us"] = append(opening.parse, w.parse...).quantile(0.5)
	if w.panelPolls > 0 {
		l["panel.items_per_poll"] = float64(w.panelItems) / float64(w.panelPolls)
	}
	l["panel.poll_p50_us"] = w.panelPoll.quantile(0.5)
	settle()
	tw := f.window(o.seconds, true)
	l["serve.goroutines_peak"] = float64(tw.goroutines)
	a := tw.tr.analyse()
	l["trace.spans"] = float64(len(tw.tr.spans))
	l["trace.overhead_share"] = 1 - tw.sl.answersPerS()/rep.e2e["answers_per_s"]
	snap := f.met.Snapshot()
	hits, misses := snap["oassis_plan_cache_hits_total"], snap["oassis_plan_cache_misses_total"]
	if hits+misses > 0 {
		l["plan.cache_hit_share"] = hits / (hits + misses)
	}
	if n := snap["oassis_plan_compile_seconds_count"]; n > 0 {
		l["plan.compile_cold_ms"] = snap["oassis_plan_compile_seconds_sum"] / n * 1e3
	}
	selfRows(l, a, tw.answers)
	if err := profileRows(l, tw.prof, "driver"); err != nil {
		rep.fail("cpu profile: %v", err)
	}
	if err := tw.tr.write(o.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	f.drain()
	return rep, nil
}
