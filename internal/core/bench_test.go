package core

import (
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// BenchmarkDrainExpansions measures batched DAG expansion over the full
// Figure 2 lattice: every generated node is queued and expanded to the
// fixpoint, the way a run whose nodes all turn significant would. It
// exercises successor generation, pool dedup and classifier registration
// together — the per-answer bookkeeping the engine pays on the hot path.
func BenchmarkDrainExpansions(b *testing.B) {
	_, _, sp := buildSpace(b, figure2Full)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newEngine(Config{Space: sp, Theta: 0.4})
		e.seed()
		for {
			queued := 0
			for _, id := range e.poolIDs {
				if !e.expanded[id] {
					e.toExpand = append(e.toExpand, id)
					queued++
				}
			}
			if queued == 0 {
				break
			}
			e.drainExpansions()
		}
		if len(e.poolIDs) == 0 {
			b.Fatal("expansion generated no nodes")
		}
	}
}

// BenchmarkEngineRun measures a complete sequential mining run of the
// paper's running example against the Table 3 members — the end-to-end
// engine cost with zero crowd latency.
func BenchmarkEngineRun(b *testing.B) {
	s, _, sp := buildSpace(b, figure2Full)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(Config{Space: sp, Theta: 0.4, Members: sampleMembers(s)})
		if len(res.MSPs) == 0 {
			b.Fatal("run mined no MSPs")
		}
	}
}

// BenchmarkSessionRoundTrip measures the step-driven protocol per answer:
// one op submits one answer and takes the next list from Next, the way the
// serving tier refills after every answer. The newest open question is
// answered first, so most submits are speculative (the engine does not
// move) and every few ops the blocked question goes in and the engine
// advances. Sessions of the travel domain run back to back; opening one
// is not timed.
func BenchmarkSessionRoundTrip(b *testing.B) {
	dc := synth.Travel
	dc.Members, dc.Patterns = 12, 8
	d, err := synth.GenerateDomain(dc)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := d.Plan(0.2)
	if err != nil {
		b.Fatal(err)
	}
	members := map[string]crowd.Member{}
	var ids []string
	for _, m := range d.NewCrowd() {
		members[m.ID()] = m
		ids = append(ids, m.ID())
	}
	var s *Session
	var qs []Question
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if qs == nil {
			b.StopTimer()
			if s != nil {
				s.Close()
			}
			s = NewSession(Config{Space: pl.NewSpace(), Theta: pl.Support,
				Agg: aggregate.NewFixedSample(3)}, ids)
			qs = s.Next()
			b.StartTimer()
		}
		q := qs[len(qs)-1]
		if err := s.Submit(q.ID, AnswerSupport(members[q.Member].Concrete(q.Facts))); err != nil {
			b.Fatal(err)
		}
		qs = s.Next()
	}
	b.StopTimer()
	if s != nil {
		s.Close()
	}
}
