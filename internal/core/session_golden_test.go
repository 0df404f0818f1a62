package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// goldenSessionDigests pins every list Next returned, every Submit outcome
// and the final Stats and MSPs of the sessions TestSessionGoldenDigest
// drives. The digests were recorded on the session implementation that
// rebuilt its open list on every Next call; any change to the open-list
// bookkeeping must reproduce them exactly (same IDs, same members, same
// questions, same order, same speculative flags).
var goldenSessionDigests = map[string]string{
	"travel/panel-0":         "75bd02557c39b7c571655deb98de109f85d1dfb88d9c930b97c3d4609458f880",
	"travel/panel-4":         "fdd7f945a90b590897f288e7678fce5aed47851c91cc5875dc04d49f7d325714",
	"culinary/panel-0":       "209d84bfb84856ca5ef15a3884f93af499d99886a1f64eae56410518427bc92f",
	"culinary/panel-4":       "1ce49a1bdea8f2399684a78b104d824cf32795b20652bd75b9499c4bf1621609",
	"self-treatment/panel-0": "5d23e1ac04cb2af9ed555ca532b6a143d26216262e4cbd3bd9dea8844bdd2c37",
	"self-treatment/panel-4": "3326d142323878fe1bafe39df25a3245a39c227949c442da856193019ac222a2",
	"travel/special":         "52dee98c39df75b05d1fe1d10978421f233d55d40d4c2ee7782bc19eae784149",
}

// TestSessionGoldenDigest drives sessions of the paper's three domains
// through Next/Submit the way a slow, partly online crowd would: each
// round some speculative questions are answered, Next is called again
// before the engine moves, a few questions retired earlier are answered
// late, and only then the blocked question goes in. The digest covers
// everything the protocol exposes.
func TestSessionGoldenDigest(t *testing.T) {
	type variant struct {
		name    string
		dc      synth.DomainConfig
		panel   int
		special bool // specialization, pruning and the timeline on
	}
	var vs []variant
	for _, dc := range []synth.DomainConfig{synth.Travel, synth.Culinary, synth.SelfTreatment} {
		dc.Members, dc.Patterns = 12, 8
		for _, panel := range []int{0, 4} {
			vs = append(vs, variant{name: fmt.Sprintf("%s/panel-%d", dc.Name, panel), dc: dc, panel: panel})
		}
	}
	travel := vs[0].dc
	vs = append(vs, variant{name: "travel/special", dc: travel, panel: 4, special: true})

	got := map[string]string{}
	for _, v := range vs {
		d, err := synth.GenerateDomain(v.dc)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := d.Plan(0.2)
		if err != nil {
			t.Fatal(err)
		}
		members := map[string]crowd.Member{}
		var ids []string
		for _, m := range d.NewCrowd() {
			members[m.ID()] = m
			ids = append(ids, m.ID())
		}
		cfg := Config{Space: pl.NewSpace(), Theta: pl.Support,
			Agg: aggregate.NewFixedSample(3), PanelSpeculation: v.panel}
		if v.special {
			cfg.SpecializationRatio = 0.3
			cfg.MaxSpecializationCandidates = 4
			cfg.EnablePruning = true
			cfg.Rng = rand.New(rand.NewSource(7))
			cfg.TrackTimeline = true
		}
		s := NewSession(cfg, ids)
		h := sha256.New()
		driveGolden(t, s, members, h)
		res := s.Close()
		fmt.Fprintf(h, "stats %+v\n", res.Stats)
		for _, m := range res.MSPs {
			fmt.Fprintf(h, "msp %s\n", cfg.Space.Instantiate(m).Key())
		}
		got[v.name] = fmt.Sprintf("%x", h.Sum(nil))
	}
	for name, sum := range got {
		if want, ok := goldenSessionDigests[name]; !ok || want != sum {
			t.Errorf("%s: digest %s, want %s", name, sum, want)
		}
	}
}

// driveGolden runs the session to completion with a deterministic answer
// schedule, writing every list and outcome to h.
func driveGolden(t *testing.T, s *Session, members map[string]crowd.Member, h hash.Hash) {
	t.Helper()
	writeList := func(tag string, qs []Question) {
		fmt.Fprintf(h, "%s %d\n", tag, len(qs))
		for _, q := range qs {
			fmt.Fprintf(h, "%d|%s|%v|%s|%v", q.ID, q.Member, q.Kind, q.Facts.Key(), q.Speculative)
			for _, c := range q.Choices {
				fmt.Fprintf(h, "|c:%s", c.Key())
			}
			for _, term := range q.Terms {
				fmt.Fprintf(h, "|t:%d", term)
			}
			fmt.Fprintln(h)
		}
	}
	submit := func(q Question) {
		err := s.Submit(q.ID, goldenAnswer(members[q.Member], q))
		switch {
		case err == nil:
			fmt.Fprintf(h, "ok %d\n", q.ID)
		case errors.Is(err, ErrUnknownQuestion), errors.Is(err, ErrSessionDone):
			fmt.Fprintf(h, "err %d %v\n", q.ID, err)
		default:
			t.Fatalf("submit %d: %v", q.ID, err)
		}
	}
	unanswered := map[QuestionID]Question{} // seen, never submitted
	var late []QuestionID                   // unanswered, in first-seen order
	for round := 0; ; round++ {
		qs := s.Next()
		writeList("next", qs)
		if qs == nil {
			return
		}
		for _, q := range qs[1:] {
			if _, seen := unanswered[q.ID]; !seen {
				unanswered[q.ID] = q
				late = append(late, q.ID)
			}
		}
		// Some speculative questions are answered while the engine waits.
		for _, q := range qs[1:] {
			if (int(q.ID)+round)%3 == 0 {
				submit(q)
				delete(unanswered, q.ID)
			}
		}
		// A second Next before the engine moves.
		if round%2 == 0 {
			writeList("again", s.Next())
		}
		// Every fifth round, the oldest question still unanswered goes in
		// late, whether or not it is still open.
		if round%5 == 4 {
			for len(late) > 0 {
				id := late[0]
				late = late[1:]
				if q, ok := unanswered[id]; ok {
					delete(unanswered, id)
					submit(q)
					break
				}
			}
		}
		submit(qs[0])
	}
}

// goldenAnswer answers q the way member m would.
func goldenAnswer(m crowd.Member, q Question) Answer {
	switch q.Kind {
	case KindSpecialization:
		r := m.ChooseSpecialization(q.Choices)
		return Answer{Choice: r.Choice, Support: r.Support, Chosen: r.Chosen, Declined: r.Declined}
	case KindPruning:
		term, ok := m.Irrelevant(q.Terms)
		if !ok {
			return AnswerNoClick()
		}
		for i, c := range q.Terms {
			if c == term {
				return AnswerIrrelevant(i)
			}
		}
		return AnswerNoClick()
	}
	return AnswerSupport(m.Concrete(q.Facts))
}
