package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"time"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/plan"
	"oassis/internal/synth"
)

// mine-domains: the paper's three §6.3 domains at the quick experiment
// scale (40 members, 14 planted patterns, 5 answers per question), each
// mined to completion through core.Session Next/Submit by seeded
// simulated crowds. Each round the driver answers the question the engine
// is blocked on plus the open questions of the members who are online; a
// quarter of the roster is online at a time, drawn afresh every round
// from the seed, and the others' speculative questions stay open until
// their next turn online.
//
// The engine's work is chaotic in the crowd: one member's answers can
// move a session's length by half. A run therefore cycles over several
// seeded crowds per domain, so that a seed's figures average many
// sessions, and times only whole cycles, so that every window of a seed
// does the same work.

type mineConfig struct {
	domains []synth.DomainConfig
	crowds  int // seeded crowds per domain; a cycle mines each once
	sample  int // answers per question (the paper's black box uses 5)
	setups  int // set-up repetitions; setup_s is their median
	seed    int64
}

func defaultMineConfig(seed int64) mineConfig {
	c := mineConfig{crowds: 32, sample: 5, setups: 11, seed: seed}
	for _, base := range []synth.DomainConfig{synth.Travel, synth.Culinary, synth.SelfTreatment} {
		base.Members, base.Patterns = 40, 14
		c.domains = append(c.domains, base)
	}
	return c
}

// mineUnit is one domain with one crowd, and the outcome the engine's
// sequential driver (core.Run) reaches on it.
type mineUnit struct {
	name    string
	pl      *plan.Plan
	ids     []string
	index   map[string]int // member ID -> roster index
	members map[string]crowd.Member
	ref     core.Stats
	msps    string
}

// buildDomains is the program's own set-up: generating each domain's
// ontology and compiling its plan. It returns the domains and the time
// spent compiling.
func buildDomains(cfg mineConfig) ([]*synth.Domain, []*plan.Plan, time.Duration, error) {
	var compile time.Duration
	ds := make([]*synth.Domain, len(cfg.domains))
	pls := make([]*plan.Plan, len(cfg.domains))
	for i, dc := range cfg.domains {
		d, err := synth.GenerateDomain(dc)
		if err != nil {
			return nil, nil, 0, err
		}
		t0 := time.Now()
		pl, err := d.Plan(0.2)
		if err != nil {
			return nil, nil, 0, err
		}
		compile += time.Since(t0)
		ds[i], pls[i] = d, pl
	}
	return ds, pls, compile, nil
}

// buildUnits generates the seeded crowds (crowd c of a domain draws its
// histories from the domain's base seed, the run's seed and c) and mines
// each unit once with core.Run for the reference outcome, audited against
// the answers its members gave.
func buildUnits(cfg mineConfig, ds []*synth.Domain, pls []*plan.Plan, rep *report) []*mineUnit {
	var units []*mineUnit
	for c := 0; c < cfg.crowds; c++ {
		for i, d := range ds {
			base := cfg.domains[i].Seed
			d.Cfg.Seed = base*1_000_003 + cfg.seed*int64(cfg.crowds) + int64(c)
			u := &mineUnit{name: fmt.Sprintf("%s/crowd-%d", d.Cfg.Name, c), pl: pls[i],
				index: map[string]int{}, members: map[string]crowd.Member{}}
			for _, m := range d.NewCrowd() {
				u.index[m.ID()] = len(u.ids)
				u.ids = append(u.ids, m.ID())
				u.members[m.ID()] = m
			}
			var ledger []answered
			members := d.NewCrowd()
			for m := range members {
				members[m] = recorder{Member: members[m], ledger: &ledger}
			}
			sp := pls[i].NewSpace()
			res := core.Run(core.Config{Space: sp, Theta: pls[i].Support,
				Members: members, Agg: aggregate.NewFixedSample(cfg.sample)})
			d.Cfg.Seed = base
			u.ref, u.msps = res.Stats, allMSPs(sp, res)
			audit(rep, u.name, sp, pls[i].Support, res, ledger, cfg.sample)
			units = append(units, u)
		}
	}
	return units
}

func allMSPs(sp *assign.Space, res *core.Result) string {
	out := make([]string, len(res.MSPs))
	for i, m := range res.MSPs {
		out[i] = sp.Instantiate(m).Key()
	}
	return digest(out)
}

// tracedAgg wraps the aggregator so the traced window sees the aggregate
// layer's calls, nested in the core call that made them.
type tracedAgg struct {
	inner aggregate.Aggregator
	tr    *tracer
}

func (a tracedAgg) Record(k, m string, s float64) bool {
	h := a.tr.begin("aggregate.Record")
	ok := a.inner.Record(k, m, s)
	a.tr.end(h)
	return ok
}

func (a tracedAgg) Verdict(k string, theta float64) aggregate.Verdict {
	h := a.tr.begin("aggregate.Verdict")
	v := a.inner.Verdict(k, theta)
	a.tr.end(h)
	return v
}

func (a tracedAgg) Answers(k string) int {
	h := a.tr.begin("aggregate.Answers")
	n := a.inner.Answers(k)
	a.tr.end(h)
	return n
}

func (a tracedAgg) Mean(k string) float64 {
	h := a.tr.begin("aggregate.Mean")
	v := a.inner.Mean(k)
	a.tr.end(h)
	return v
}

// mineDriver mines the units one session at a time.
type mineDriver struct {
	cfg    mineConfig
	units  []*mineUnit
	rng    *rand.Rand // draws who is online each round
	online []bool     // by roster index: members online this round
	rep    *report
}

// answered is one answer a member gave.
type answered struct {
	facts   fact.Set
	member  string
	support float64
}

// recorder is a crowd member that keeps a ledger of its answers.
type recorder struct {
	crowd.Member
	ledger *[]answered
}

func (r recorder) Concrete(fs fact.Set) float64 {
	a := r.Member.Concrete(fs)
	*r.ledger = append(*r.ledger, answered{facts: fs, member: r.ID(), support: a})
	return a
}

// audit checks a run's MSPs against the ledger of the answers its members
// gave, without the engine or the aggregator: an MSP is never inferred
// from a more specific pattern, so it must have been asked of exactly
// `sample` members whose mean answer reaches the support; and no MSP may
// lie below another.
func audit(rep *report, name string, sp *assign.Space, theta float64, res *core.Result, ledger []answered, sample int) {
	rep.attempted++
	for i, a := range res.MSPs {
		fs := sp.Instantiate(a)
		members := map[string]bool{}
		sum := 0.0
		for _, e := range ledger {
			if e.facts.Equal(fs) {
				members[e.member] = true
				sum += e.support
			}
		}
		if n := len(members); n != sample || sum/float64(n) < theta-aggregate.Eps {
			rep.fail("%s: MSP %s is not significant by the answers given (%d members, sum %.2f)",
				name, sp.Format(a), n, sum)
		}
		for _, b := range res.MSPs[i+1:] {
			if sp.Leq(a, b) || sp.Leq(b, a) {
				rep.fail("%s: MSPs %s and %s are comparable", name, sp.Format(a), sp.Format(b))
			}
		}
	}
}

// mineWindow is what one window measured.
type mineWindow struct {
	start                  time.Time
	elapsed                time.Duration
	answers, rounds        int64
	openList               int64 // summed length of Next's list
	cpu                    time.Duration
	rtt, open              samples
	doneTotal, doneBlocked int64 // completed sessions: counted answers, blocked answers
	doneSpec               int64 // completed sessions: speculative answers submitted
	rt0, rt1               rtMetrics
	tr                     *tracer
	prof                   []byte
}

// window mines whole cycles over the units until d has elapsed (at least
// one), so every window of a seed does the same work and only its speed
// varies.
func (m *mineDriver) window(d time.Duration, traced bool) *mineWindow {
	w := &mineWindow{tr: newTracer(traced)}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			m.rep.fail("cpu profile: %v", err)
		}
	}
	w.rt0 = readRT()
	cpu0 := cpuTime()
	start := time.Now()
	w.start = start
	for {
		for _, u := range m.units {
			m.mine(u, w)
		}
		if time.Since(start) >= d {
			break
		}
	}
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	w.rt1 = readRT()
	if traced {
		pprof.StopCPUProfile()
		w.prof = prof.Bytes()
	}
	return w
}

// mine runs one unit's session to completion and checks its outcome.
// Each round, the online members' answers and then the blocked one go in
// and the next list of open questions comes back: that is a round trip.
func (m *mineDriver) mine(u *mineUnit, w *mineWindow) {
	t0 := time.Now()
	h := w.tr.begin("core.NewSession")
	sp := u.pl.NewSpace()
	var agg aggregate.Aggregator = aggregate.NewFixedSample(m.cfg.sample)
	if w.tr.on {
		agg = tracedAgg{inner: agg, tr: w.tr}
	}
	s := core.NewSession(core.Config{Space: sp, Theta: u.pl.Support, Agg: agg}, u.ids)
	w.tr.end(h)
	h = w.tr.begin("core.Session.Next")
	qs := s.Next()
	w.tr.end(h)
	w.open.add(time.Since(t0))

	var blocked, spec int64
	for qs != nil {
		w.tr.newTrip()
		w.rounds++
		w.openList += int64(len(qs))
		for i := range m.online {
			m.online[i] = m.rng.Intn(4) == 0
		}
		var spent time.Duration
		// Online members answer their open questions while the engine
		// waits; the blocked question (first) is answered last.
		for i := len(qs) - 1; i >= 0; i-- {
			q := qs[i]
			if i > 0 && !m.online[u.index[q.Member]] {
				continue
			}
			m.rep.attempted++
			if q.Kind != core.KindConcrete {
				// The crowd only gets concrete questions here: no
				// specialization ratio, no pruning.
				m.rep.fail("%s: unexpected %v question", u.name, q.Kind)
			}
			a := core.AnswerSupport(u.members[q.Member].Concrete(q.Facts))
			t1 := time.Now()
			h = w.tr.begin("core.Session.Submit")
			err := s.Submit(q.ID, a)
			w.tr.end(h)
			spent += time.Since(t1)
			if err != nil {
				m.rep.fail("%s: submit: %v", u.name, err)
			}
			w.answers++
			if i == 0 {
				blocked++
			} else {
				spec++
			}
		}
		t1 := time.Now()
		h := w.tr.begin("core.Session.Next")
		qs = s.Next()
		w.tr.end(h)
		spent += time.Since(t1)
		w.rtt.add(spent)
	}

	res := s.Result()
	m.rep.attempted++
	switch {
	case res == nil:
		m.rep.fail("%s: finished session has no result", u.name)
		return
	case allMSPs(sp, res) != u.msps:
		m.rep.fail("%s: MSPs differ from the sequential engine's", u.name)
	case res.Stats.TotalQuestions != u.ref.TotalQuestions || res.Stats.GeneratedNodes != u.ref.GeneratedNodes:
		m.rep.fail("%s: %d questions / %d nodes, sequential engine %d / %d", u.name,
			res.Stats.TotalQuestions, res.Stats.GeneratedNodes, u.ref.TotalQuestions, u.ref.GeneratedNodes)
	}
	w.doneTotal += int64(res.Stats.TotalQuestions)
	w.doneBlocked += blocked
	w.doneSpec += spec
}

func runMine(o options, cfg mineConfig) (*report, error) {
	rep := newReport()
	var setups []float64
	var compile time.Duration
	var ds []*synth.Domain
	var pls []*plan.Plan
	for i := 0; i < cfg.setups; i++ {
		settle()
		t0 := time.Now()
		d, p, c, err := buildDomains(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		ds, pls, compile = d, p, c
	}
	rep.e2e["setup_s"] = median(setups)

	t0 := time.Now()
	units := buildUnits(cfg, ds, pls, rep)
	phase("references and audit", t0)
	var questions, unique, nodes int
	for _, u := range units {
		questions += u.ref.TotalQuestions
		unique += u.ref.UniqueQuestions
		nodes += u.ref.GeneratedNodes
	}
	m := &mineDriver{cfg: cfg, units: units, rng: rand.New(rand.NewSource(o.seed)),
		online: make([]bool, cfg.domains[0].Members), rep: rep}
	for _, u := range units[:len(pls)] { // warm-up: one untimed session per domain
		m.mine(u, &mineWindow{tr: newTracer(false)})
	}
	settle()
	w := m.window(o.seconds, false)
	phase("window", w.start)
	rep.e2e["answers_per_s"] = float64(w.answers) / w.elapsed.Seconds()
	rep.e2e["rtt_p50_us"] = w.rtt.quantile(0.5)
	rep.e2e["rtt_p90_us"] = w.rtt.quantile(0.9)
	rep.e2e["open_p50_us"] = w.open.quantile(0.5)
	rep.e2e["cpu_us_per_answer"] = float64(w.cpu.Microseconds()) / float64(w.answers)
	rep.e2e["crowd_questions"] = float64(questions)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep.e2e["peak_rss_mb"] = rss
	if !o.trace {
		return rep, nil
	}

	l := rep.layer
	gcRows(l, w.rt0, w.rt1, w.answers)
	l["driver.rtt_samples"] = float64(len(w.rtt))
	l["driver.rtt_p99_us"] = w.rtt.quantile(0.99)
	l["assign.nodes_generated"] = float64(nodes)
	l["aggregate.answers_per_question"] = float64(questions) / float64(unique)
	l["plan.compile_cold_ms"] = float64(compile.Microseconds()) / 1e3 / float64(len(pls))
	settle()
	tw := m.window(o.seconds, true)
	a := tw.tr.analyse()
	l["trace.spans"] = float64(len(tw.tr.spans))
	l["trace.overhead_share"] = 1 - (float64(tw.answers)/tw.elapsed.Seconds())/rep.e2e["answers_per_s"]
	l["core.next_p50_us"] = a.calls["core.Session.Next"].quantile(0.5)
	l["core.next_p99_us"] = a.calls["core.Session.Next"].quantile(0.99)
	l["core.submit_p50_us"] = a.calls["core.Session.Submit"].quantile(0.5)
	l["core.submit_p99_us"] = a.calls["core.Session.Submit"].quantile(0.99)
	l["core.open_questions_mean"] = float64(tw.openList) / float64(tw.rounds)
	if tw.doneSpec > 0 {
		l["core.speculative_used_share"] = float64(tw.doneTotal-tw.doneBlocked) / float64(tw.doneSpec)
	}
	selfRows(l, a, tw.answers)
	if err := profileRows(l, tw.prof, "driver"); err != nil {
		rep.fail("cpu profile: %v", err)
	}
	if err := tw.tr.write(o.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}
