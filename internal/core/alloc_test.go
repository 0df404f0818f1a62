package core

import (
	"runtime"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/plan"
	"oassis/internal/synth"
)

// TestAllocsTierOnePick gates the ordering seam's tier-one promise: under
// a stateless comparator policy the engine's candidate scan is the
// original allocation-free loop — interned node reads, sealed keys, a
// pairwise Better per candidate, nothing heap-bound. The tier-two branch
// (which legitimately builds a candidate view) must never leak into this
// path.
func TestAllocsTierOnePick(t *testing.T) {
	_, _, sp := buildSpace(t, figure3Restricted)
	for _, policy := range []plan.Policy{plan.PaperOrder{}, plan.LargestFirst{}} {
		e := newEngine(Config{Space: sp, Theta: 0.4, Ordering: policy})
		e.seed()
		e.drainExpansions()
		// Warm: the first pick seals every candidate's memoized key.
		if _, ok := e.pickMinimalUnclassified(); !ok {
			t.Fatalf("%s: seeded engine has no unclassified candidates", policy.Name())
		}
		allocs := testing.AllocsPerRun(100, func() {
			e.pickMinimalUnclassified()
		})
		if allocs != 0 {
			t.Errorf("%s: tier-one pick allocates %.1f times per call, want 0",
				policy.Name(), allocs)
		}
	}
}

// TestAllocsClassification gates the timeline bookkeeping of a
// classification: with TrackTimeline off it is skipped outright, and with
// it on it walks the open valid rows against singletons the Space built
// once, in place. Neither allocates.
func TestAllocsClassification(t *testing.T) {
	_, _, sp := buildSpace(t, figure2Full)
	for _, timeline := range []bool{false, true} {
		e := newEngine(Config{Space: sp, Theta: 0.4, TrackTimeline: timeline})
		e.seed()
		// A significant minimal node lies below no valid row, so every
		// call walks all of them.
		node := e.ns.node(e.poolIDs[0])
		e.onClassified(node, true) // warm: builds the Space's singletons
		allocs := testing.AllocsPerRun(100, func() {
			e.onClassified(node, true)
		})
		if timeline && len(e.openRows) != len(sp.ValidBase) {
			t.Fatalf("gate node classified %d of %d valid rows, want none",
				len(sp.ValidBase)-len(e.openRows), len(sp.ValidBase))
		}
		if allocs != 0 {
			t.Errorf("timeline %v: classification bookkeeping allocates %.1f times, want 0",
				timeline, allocs)
		}
	}
}

// TestAllocsNextAfterSpeculativeSubmit gates the open list: after a Submit
// that does not move the engine, Next neither retires nor speculates, and
// allocates only the slice it returns.
func TestAllocsNextAfterSpeculativeSubmit(t *testing.T) {
	dc := synth.Travel
	dc.Members, dc.Patterns = 12, 8
	d, err := synth.GenerateDomain(dc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := d.Plan(0.2)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range d.NewCrowd() {
		ids = append(ids, m.ID())
	}
	s := NewSession(Config{Space: pl.NewSpace(), Theta: pl.Support,
		Agg: aggregate.NewFixedSample(3)}, ids)
	defer s.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	qs := s.Next()
	if len(qs) < 4 {
		t.Fatalf("only %d open questions, want a few speculative ones", len(qs))
	}
	var before, after runtime.MemStats
	for _, q := range qs[1:] {
		if err := s.Submit(q.ID, AnswerSupport(0.5)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		next := s.Next()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > 1 {
			t.Errorf("Next after a speculative Submit allocated %d times, want at most 1", n)
		}
		if next[0].ID != qs[0].ID {
			t.Fatalf("speculative Submit moved the engine: blocked %d, was %d", next[0].ID, qs[0].ID)
		}
	}
}
