package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/obs"
	"oassis/internal/plan"
	"oassis/internal/vocab"
)

// Session errors.
var (
	// ErrSessionDone is returned by Submit after the run has finished.
	ErrSessionDone = errors.New("core: session finished")
	// ErrUnknownQuestion is returned by Submit for an ID the session never
	// issued or has already consumed an answer for.
	ErrUnknownQuestion = errors.New("core: unknown or already answered question")
)

// QuestionID identifies one issued question within a session.
type QuestionID int64

// Question is one independently answerable crowd question surfaced by a
// Session. A concrete question carries Facts; a specialization question
// carries Choices.
type Question struct {
	ID     QuestionID
	Member string
	Kind   QuestionKind
	// Facts is the fact-set whose frequency is asked (concrete question).
	Facts fact.Set
	// Choices holds the candidate fact-sets of a specialization question.
	Choices []fact.Set
	// Terms holds the candidate terms of a user-guided pruning question
	// (the member may mark one as irrelevant to them).
	Terms []vocab.Term
	// Speculative marks a question surfaced ahead of the engine's own
	// request — the current round's node question, or a mirror of the
	// question the engine is blocked on, for a member whose turn has not
	// come yet. Its answer is buffered until the engine asks for it, and
	// is silently discarded if the engine never does.
	Speculative bool
}

// Specialization reports whether the question asks to pick a choice.
func (q Question) Specialization() bool { return q.Kind == KindSpecialization }

// Answer is the reply to a Question. For a concrete question only Support
// is read. For a specialization question the fields mirror
// crowd.SpecializeResponse: Chosen+Choice+Support picks a candidate,
// Declined asks for concrete questions instead, and the zero value is
// "none of these". For a pruning question Chosen+Choice marks the term at
// Choice irrelevant and the zero value is "no click".
type Answer struct {
	Support  float64
	Choice   int
	Chosen   bool
	Declined bool
}

// AnswerSupport replies to a concrete question.
func AnswerSupport(s float64) Answer { return Answer{Support: s} }

// AnswerChoice replies to a specialization question by picking candidate
// idx with the given support.
func AnswerChoice(idx int, s float64) Answer {
	return Answer{Choice: idx, Support: s, Chosen: true}
}

// AnswerNoneOfThese rejects every candidate of a specialization question.
func AnswerNoneOfThese() Answer { return Answer{} }

// AnswerDecline asks for concrete questions instead of a specialization.
func AnswerDecline() Answer { return Answer{Declined: true} }

// AnswerIrrelevant replies to a pruning question by marking the term at
// idx irrelevant.
func AnswerIrrelevant(idx int) Answer { return Answer{Choice: idx, Chosen: true} }

// AnswerNoClick replies to a pruning question without marking anything.
func AnswerNoClick() Answer { return Answer{} }

// payload is an answer in the engine's native shape, packed to 16 bytes:
// the support of a concrete answer, or the fields of a
// crowd.SpecializeResponse for a specialization or pruning answer.
type payload struct {
	support  float64
	choice   int32
	chosen   bool
	declined bool
}

// spec unpacks a specialization or pruning answer.
func (p payload) spec() crowd.SpecializeResponse {
	return crowd.SpecializeResponse{Choice: int(p.choice), Support: p.support,
		Chosen: p.chosen, Declined: p.declined}
}

// askKey identifies a question independently of when it is asked, so an
// answer collected early (speculatively) can be merged in when the engine
// reaches the same question: the member (the roster index of the first
// member with that ID), the kind, and the question text interned by the
// session (see Session.intern).
type askKey struct {
	member int32
	qid    int32
	kind   QuestionKind
}

// ask is one engine request, sent by a proxy member that then waits on the
// session's reply channel.
type ask struct {
	member  int32 // as in askKey
	kind    QuestionKind
	key     string // the question text
	facts   fact.Set
	choices []fact.Set
	terms   []vocab.Term
}

// instance is one issued Question awaiting its answer.
type instance struct {
	q    Question
	key  askKey
	gen  int  // round generation at issue time (speculative retirement)
	done bool // answered or retired; dropped from the open list by Next
}

// roundState mirrors the engine's current scheduling position: the lattice
// node the main loop is classifying and its instantiated question.
type roundState struct {
	node assign.Assignment
	fs   fact.Set
	qKey string
}

// Session runs the mining engine with inverted, step-driven control: Next
// surfaces every question that is currently independently answerable, and
// Submit merges an answer back in, in any order. The engine itself is the
// unmodified sequential algorithm running on its own goroutine; proxy
// members park its question requests, and answers submitted ahead of the
// engine's own order are buffered and merged in when the engine reaches
// them. Results are therefore bit-identical to Run for members whose
// answers depend only on (member, question) — which holds for answers
// ultimately produced by humans or the pure simulated members.
//
//	s := core.NewSession(cfg, []string{"ann", "bob"})
//	for qs := s.Next(); len(qs) > 0; qs = s.Next() {
//	    for _, q := range qs {
//	        s.Submit(q.ID, core.AnswerSupport(askHuman(q)))
//	    }
//	}
//	res := s.Close()
//
// Beyond the one question the engine is blocked on (always first in Next's
// slice), Next speculates: for every member whose turn has not come yet it
// surfaces the current round's node question (the engine is known to ask
// it unless the node classifies first) and a mirror of the engine's
// blocked concrete question (members who share habits descend the same
// specialization chains, so the buffered mirrors serve their chains
// without a round trip). Speculative answers the round outruns are retired
// without ever entering the run's statistics.
//
// The open questions live in one list in ascending ID order (IDs are
// issued in increasing order, so issuing appends), and Next copies it out
// without walking a map or sorting. Next reruns retirement and speculation
// only when the engine has moved since it last ran them; see speculate for
// why that is exact.
//
// A Session is not safe for concurrent use; callers serialize access (the
// concurrent dispatcher RunConcurrent drives one session from one
// goroutine and fans questions out from there).
type Session struct {
	eng     *engine
	order   []string                // member IDs in engine order
	proxies map[string]*proxyMember // by member ID
	byIdx   []*proxyMember          // proxies[order[i]]

	askCh chan ask
	reply chan payload // the answer to the engine's one outstanding ask
	done  chan struct{}
	abort chan struct{}
	res   *Result // written by the engine goroutine before done closes

	open     []*instance          // open questions in ascending ID order, plus done ones Next drops
	byKey    map[askKey]*instance // open questions by ask
	buffered map[askKey]payload
	retired  map[QuestionID]askKey // late answers are still buffered once
	blocked  *instance
	nextID   QuestionID
	keys     map[string]int32 // interned question texts
	texts    []string         // by interned id

	// Engine scheduling state, written by hooks on the engine goroutine
	// and read here only while the engine is parked.
	round    roundState
	roundGen int
	curTurn  int

	// Speculation bookkeeping: steps counts the engine's parks, and
	// specStep and specRound record the park and the round speculation
	// last ran for (see speculate). roundQ is the round question's
	// interned text.
	steps     int
	specStep  int
	specRound int
	roundQ    int32

	// Observability (nil/empty when neither metrics nor tracer is
	// attached). issuedAt and spanEnd are keyed by question ID; recording
	// is write-only w.r.t. the engine, so instrumented runs stay
	// bit-identical to uninstrumented ones.
	metrics  *Metrics
	tracer   obs.Tracer
	issuedAt map[QuestionID]time.Time
	spanEnd  map[QuestionID]func()

	closed   bool
	finished bool
}

// NewSession starts the engine over the given member IDs and parks it on
// its first question. cfg.Members is ignored; proxy members are created
// per ID.
func NewSession(cfg Config, memberIDs []string) *Session {
	s := &Session{
		askCh:     make(chan ask),
		reply:     make(chan payload, 1),
		done:      make(chan struct{}),
		abort:     make(chan struct{}),
		byKey:     make(map[askKey]*instance),
		buffered:  make(map[askKey]payload),
		retired:   make(map[QuestionID]askKey),
		keys:      make(map[string]int32),
		proxies:   make(map[string]*proxyMember, len(memberIDs)),
		byIdx:     make([]*proxyMember, len(memberIDs)),
		metrics:   cfg.Metrics,
		tracer:    cfg.Tracer,
		specStep:  -1,
		specRound: -1,
	}
	if s.metrics != nil || s.tracer != nil {
		s.issuedAt = make(map[QuestionID]time.Time)
		s.spanEnd = make(map[QuestionID]func())
	}
	members := make([]crowd.Member, 0, len(memberIDs))
	first := make(map[string]int32, len(memberIDs))
	for i, id := range memberIDs {
		if _, dup := first[id]; !dup {
			first[id] = int32(i)
		}
		p := &proxyMember{s: s, id: id, idx: first[id], left: make(chan struct{})}
		s.proxies[id] = p
		s.order = append(s.order, id)
		members = append(members, p)
	}
	for i, id := range memberIDs {
		s.byIdx[i] = s.proxies[id]
	}
	cfg.Members = members
	userCanceled := cfg.Canceled
	cfg.Canceled = func() bool {
		select {
		case <-s.abort:
			return true
		default:
		}
		return userCanceled != nil && userCanceled()
	}
	e := newEngine(cfg)
	e.hooks = engineHooks{
		onRound: func(node assign.Assignment, fs fact.Set, qKey string) {
			s.roundGen++
			s.round = roundState{node: node, fs: fs, qKey: qKey}
			s.curTurn = -1
		},
		onTurn: func(i int) { s.curTurn = i },
	}
	s.eng = e
	go func() {
		e.seed()
		e.mainLoop()
		s.res = e.result()
		close(s.done)
	}()
	s.advance()
	return s
}

// intern maps a question text to its session-wide id. The empty text maps
// to -1, which speculate reads as "no question", as it always read the
// empty text.
func (s *Session) intern(key string) int32 {
	if key == "" {
		return -1
	}
	id, ok := s.keys[key]
	if !ok {
		id = int32(len(s.texts))
		s.keys[key] = id
		s.texts = append(s.texts, key)
	}
	return id
}

// advance waits for the engine to park on its next question (or finish),
// serving buffered answers along the way. On return either s.blocked is
// the engine's parked question or s.finished is set.
func (s *Session) advance() {
	for {
		select {
		case a := <-s.askCh:
			// The engine is parked on a; it touches no shared state until
			// the reply, so the session may read engine fields freely.
			key := askKey{member: a.member, qid: s.intern(a.key), kind: a.kind}
			if s.byIdx[a.member].Left() {
				// The member left while the engine was already committing
				// to this ask; answer for them as Leave would.
				s.reply <- leavePayload(a.kind)
				continue
			}
			if pay, ok := s.buffered[key]; ok {
				// An answer collected earlier merges in at the engine's
				// own position in the question order.
				delete(s.buffered, key)
				s.reply <- pay
				continue
			}
			s.steps++
			if inst, ok := s.byKey[key]; ok {
				// A speculative question already issued for exactly this
				// ask: adopt it, keeping its ID.
				s.blocked = inst
				return
			}
			inst := &instance{
				key: key,
				gen: s.roundGen,
				q: Question{
					ID:      s.nextID,
					Member:  s.order[a.member],
					Kind:    a.kind,
					Facts:   a.facts,
					Choices: a.choices,
					Terms:   a.terms,
				},
			}
			s.nextID++
			s.open = append(s.open, inst)
			s.byKey[key] = inst
			s.blocked = inst
			s.noteIssued(inst)
			return
		case <-s.done:
			s.finished = true
			s.blocked = nil
			// Whatever is still open can never be consumed.
			for _, inst := range s.open {
				if !inst.done {
					s.retire(inst)
				}
			}
			s.open = nil
			return
		}
	}
}

// noteIssued books a freshly issued question instance with the attached
// metrics and tracer. With neither attached it does nothing at all (not
// even a clock read).
func (s *Session) noteIssued(inst *instance) {
	if s.metrics == nil && s.tracer == nil {
		return
	}
	s.metrics.questionIssued(inst.q.Kind, inst.q.Speculative)
	if s.metrics != nil {
		s.issuedAt[inst.q.ID] = time.Now()
	}
	if s.tracer != nil {
		phase := "blocked"
		if inst.q.Speculative {
			phase = "speculative"
		}
		s.spanEnd[inst.q.ID] = s.tracer.Begin("question",
			obs.A("id", strID(inst.q.ID)), obs.A("member", inst.q.Member),
			obs.A("kind", inst.q.Kind.String()), obs.A("phase", phase))
	}
}

// noteAnswered books an answered question: latency observation and span
// end.
func (s *Session) noteAnswered(inst *instance) {
	if s.metrics == nil && s.tracer == nil {
		return
	}
	s.metrics.questionAnswered(inst.q.Kind, s.issuedAt[inst.q.ID])
	delete(s.issuedAt, inst.q.ID)
	if end, ok := s.spanEnd[inst.q.ID]; ok {
		end()
		delete(s.spanEnd, inst.q.ID)
	}
}

// noteRetired books a question retired without an answer.
func (s *Session) noteRetired(id QuestionID) {
	if s.metrics == nil && s.tracer == nil {
		return
	}
	s.metrics.questionRetired()
	delete(s.issuedAt, id)
	if end, ok := s.spanEnd[id]; ok {
		end()
		delete(s.spanEnd, id)
	}
}

// retire takes an open question off the open list without an answer. Its
// ID stays known so a late answer is still buffered (never re-ask a
// human).
func (s *Session) retire(inst *instance) {
	inst.done = true
	s.retired[inst.q.ID] = inst.key
	delete(s.byKey, inst.key)
	s.noteRetired(inst.q.ID)
}

// retireStale retires the speculative questions of rounds the engine has
// moved past. A question's round generation is the one current when it
// was issued, so generations never decrease along the ID-ordered open
// list, and the stale questions are a prefix of it.
func (s *Session) retireStale() {
	for _, inst := range s.open {
		if inst.gen == s.roundGen {
			return
		}
		if !inst.done && inst.q.Speculative && inst != s.blocked {
			s.retire(inst)
		}
	}
}

// eligible reports whether the engine could still ask member idx the
// concrete question (key, fs), whose interned text is qid: the question is
// not already open or buffered for them, and they are active, with budget,
// and without a cached, primed, or pruning-implied answer.
func (s *Session) eligible(idx int, qid int32, key string, fs fact.Set) bool {
	k := askKey{member: s.byIdx[idx].idx, qid: qid, kind: KindConcrete}
	if _, open := s.byKey[k]; open {
		return false
	}
	if _, buf := s.buffered[k]; buf {
		return false
	}
	if s.byIdx[idx].Left() {
		return false
	}
	id := s.order[idx]
	e := s.eng
	if e.banned != nil && e.banned[id] {
		return false
	}
	if idx < len(e.budgets) && e.budgets[idx] == 0 {
		return false
	}
	if _, ok := e.memberAns[id][key]; ok {
		return false
	}
	if e.pruneHit(id, fs) {
		return false
	}
	if e.cfg.Prime != nil {
		if _, ok := e.cfg.Prime.Lookup(key, id); ok {
			return false
		}
	}
	return true
}

// issueSpeculative opens a speculative concrete-question instance.
func (s *Session) issueSpeculative(memberIdx int, qid int32, fs fact.Set) {
	p := s.byIdx[memberIdx]
	inst := &instance{
		key: askKey{member: p.idx, qid: qid, kind: KindConcrete},
		gen: s.roundGen,
		q: Question{
			ID:          s.nextID,
			Member:      p.id,
			Kind:        KindConcrete,
			Facts:       fs,
			Speculative: true,
		},
	}
	s.nextID++
	s.open = append(s.open, inst)
	s.byKey[inst.key] = inst
	s.noteIssued(inst)
}

// speculate issues questions the engine has not asked yet but is likely
// to, for members whose turn has not come in the current round:
//
//   - the round's node question — the engine asks it of every member in
//     turn unless the node classifies first; and
//   - a mirror of the question the engine is currently blocked on (when it
//     is a deeper, concrete descend question): members with similar habits
//     descend the same chains, so their buffered answers serve whole
//     chains without a round trip when their turns come.
//
// Only members the engine would actually ask are considered, and answers
// the engine never consumes are discarded without entering the statistics
// — so speculation affects wall clock and waste, never the result.
//
// Invariant: until the engine moves, and within one round, eligibility
// only shrinks. Every reason a member is ineligible for a question is
// permanent (left, banned, budget spent, pruned, primed, answered) or
// turns into another one (an open question is answered into the buffer,
// a buffered answer is consumed into the member's answers); questions are
// retired only when the round changes; and the member's turn only moves
// forward within a round. So speculating again before the engine has
// moved issues nothing, and speculating on the round's node question (and
// on its successors) again later in the same round issues nothing either:
// Next runs speculate once per engine park, the round question and the
// successors once per round, and the mirror once per blocked question,
// with the same IDs as speculating on every call.
func (s *Session) speculate() {
	newRound := s.specRound != s.roundGen
	if newRound {
		s.specRound = s.roundGen
		s.roundQ = s.intern(s.round.qKey)
	}
	mirror := int32(-1)
	var mirrorKey string
	var mirrorFS fact.Set
	if s.blocked != nil && s.blocked.key.kind == KindConcrete {
		mirror = s.blocked.key.qid
		mirrorFS = s.blocked.q.Facts
		if mirror >= 0 {
			mirrorKey = s.texts[mirror]
		}
	}
	for i := s.curTurn + 1; i < len(s.order); i++ {
		if newRound && s.roundQ >= 0 && s.eligible(i, s.roundQ, s.round.qKey, s.round.fs) {
			s.issueSpeculative(i, s.roundQ, s.round.fs)
		}
		if mirror >= 0 && mirror != s.roundQ && s.eligible(i, mirror, mirrorKey, mirrorFS) {
			s.issueSpeculative(i, mirror, mirrorFS)
		}
	}
	if newRound {
		s.speculateSuccessors()
	}
}

// speculateSuccessors widens speculation for panel batching (see
// Config.PanelSpeculation): it surfaces up to PanelSpeculation immediate
// successors of the round's node — the questions descend asks next when a
// member's answer reaches the threshold — for the blocked member and
// every member after them in the round. A panel then carries a whole
// descent chain's first level in one round trip; answers the engine never
// asks for are retired by the usual machinery without touching the
// result.
func (s *Session) speculateSuccessors() {
	n := s.eng.cfg.PanelSpeculation
	if n <= 0 {
		return
	}
	succs := s.eng.succsOf(s.eng.ns.intern(s.round.node))
	if len(succs) > n {
		succs = succs[:n]
	}
	from := max(s.curTurn, 0)
	for _, succ := range succs {
		fs, qKey := s.eng.instantiate(succ)
		qid := s.intern(qKey)
		for i := from; i < len(s.order); i++ {
			if s.eligible(i, qid, qKey, fs) {
				s.issueSpeculative(i, qid, fs)
			}
		}
	}
}

// Next returns every question that can be answered right now: the one the
// engine is blocked on (always first), followed by the open speculative
// questions in issue order. It returns nil exactly when the run has
// finished and Close/Result hold the outcome. The slice is fresh and the
// caller's to keep.
func (s *Session) Next() []Question {
	if s.finished || s.closed {
		return nil
	}
	if s.specStep != s.steps {
		s.specStep = s.steps
		s.retireStale()
		s.speculate()
	}
	live := s.open[:0]
	for _, inst := range s.open {
		if !inst.done {
			live = append(live, inst)
		}
	}
	clear(s.open[len(live):])
	s.open = live
	out := make([]Question, 1, len(live))
	out[0] = s.blocked.q
	for _, inst := range live {
		if inst != s.blocked {
			out = append(out, inst.q)
		}
	}
	return out
}

// lookup finds the open question with the given ID by binary search over
// the ID-ordered open list.
func (s *Session) lookup(id QuestionID) *instance {
	lo, hi := 0, len(s.open)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.open[m].q.ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(s.open) && s.open[lo].q.ID == id && !s.open[lo].done {
		return s.open[lo]
	}
	return nil
}

// Submit merges the answer to a previously issued question. Answering the
// engine's blocked question unparks it and advances the run to its next
// question; answering a speculative question buffers the answer until the
// engine reaches it. Answers to retired questions are buffered too —
// a collected human answer is never thrown away while the question could
// still be asked — and are discarded only if the run never needs them.
func (s *Session) Submit(id QuestionID, a Answer) error {
	if key, ok := s.retired[id]; ok {
		delete(s.retired, id)
		if !s.finished {
			s.buffered[key] = payloadFor(key.kind, a)
		}
		return nil
	}
	if s.finished || s.closed {
		return ErrSessionDone
	}
	inst := s.lookup(id)
	if inst == nil {
		return fmt.Errorf("%w: id %d", ErrUnknownQuestion, id)
	}
	pay := payloadFor(inst.key.kind, a)
	inst.done = true
	delete(s.byKey, inst.key)
	s.noteAnswered(inst)
	if inst == s.blocked {
		s.blocked = nil
		s.reply <- pay
		s.advance()
		return nil
	}
	s.buffered[inst.key] = pay
	return nil
}

// Submission pairs a question ID with its answer for SubmitBatch.
type Submission struct {
	ID     QuestionID
	Answer Answer
}

// SubmitBatch merges a whole panel of answers in one call, applying them
// in ascending question-ID order regardless of the order given — the
// deterministic order that makes batched submission bit-identical to
// per-question submission: answers ahead of the engine's own position are
// buffered by ask key exactly as individual Submits would buffer them,
// and merged in when the engine reaches the same question. The first
// submission error is returned after every submission was attempted.
func (s *Session) SubmitBatch(subs []Submission) error {
	ordered := append([]Submission(nil), subs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	var first error
	for _, sub := range ordered {
		if err := s.Submit(sub.ID, sub.Answer); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AggregateHint exposes the running aggregate for a concrete question's
// fact-set: the mean of the answers collected so far and how many there
// are. It is how prior sources derive best guesses from the crowd state
// without reaching into the engine. Safe to call whenever the caller may
// call Next/Submit (the engine is parked between those calls).
func (s *Session) AggregateHint(fs fact.Set) (mean float64, answers int) {
	key := fs.Key()
	return s.eng.agg.Mean(key), s.eng.agg.Answers(key)
}

// Ordering returns the session's resolved question ordering (the
// config's, or plan.PaperOrder by default). Batching layers use it to
// score panel positions consistently with the engine's own selection.
func (s *Session) Ordering() plan.Ordering { return s.eng.ordering }

func payloadFor(kind QuestionKind, a Answer) payload {
	if kind == KindConcrete {
		return payload{support: a.Support}
	}
	// Specialization and pruning answers both travel as a
	// SpecializeResponse; for pruning, Chosen+Choice is the clicked term.
	// A choice outside int32 saturates, which keeps it out of range of
	// any candidate list, as it was.
	return payload{support: a.Support, choice: int32(min(max(a.Choice, math.MinInt32), math.MaxInt32)),
		chosen: a.Chosen, declined: a.Declined}
}

// leavePayload is the answer the session gives on a leaving member's
// behalf: support 0 for a concrete question (a harmless one-answer bias
// the aggregator absorbs), decline for a specialization, no click for a
// pruning offer.
func leavePayload(kind QuestionKind) payload {
	if kind == KindConcrete {
		return payload{}
	}
	return payload{declined: true}
}

// Leave ends a member's participation: the engine stops asking them, and a
// question of theirs still in flight is answered with leavePayload.
func (s *Session) Leave(memberID string) {
	if p := s.proxies[memberID]; p != nil {
		p.leave()
		if s.blocked != nil && s.blocked.key.member == p.idx && !s.finished {
			// Answer the parked ask on the member's behalf and catch the
			// engine up to its next question.
			kind := s.blocked.key.kind
			s.retire(s.blocked)
			s.blocked = nil
			s.reply <- leavePayload(kind)
			s.advance()
		}
	}
}

// Done reports whether the run has finished and Result is available.
func (s *Session) Done() bool { return s.finished }

// BufferedWaste reports the answers collected speculatively that are
// still buffered without the engine ever consuming them — the waste
// accounting dispatchers read after Close.
func (s *Session) BufferedWaste() int { return len(s.buffered) }

// Result returns the outcome, or nil while the run is still going.
func (s *Session) Result() *Result {
	if !s.finished {
		return nil
	}
	return s.res
}

// Close cancels the run if it is still going, waits for the engine to wind
// down, and returns the (possibly partial) result. Closing an already
// finished session just returns the result.
func (s *Session) Close() *Result {
	if !s.closed {
		s.closed = true
		close(s.abort)
	}
	if !s.finished {
		<-s.done
		s.finished = true
		// The engine goroutine has exited (done is closed), so the open
		// instances can never be consumed; retire them for the in-flight
		// gauge and the open spans. On the normal-finish path advance()
		// already did this and the list is empty.
		for _, inst := range s.open {
			if !inst.done {
				s.noteRetired(inst.q.ID)
			}
		}
		s.open = nil
		clear(s.byKey)
	}
	return s.res
}

// proxyMember adapts the engine's pull on crowd.Member to the session's
// parked-question handshake.
type proxyMember struct {
	s    *Session
	id   string
	idx  int32 // roster index of the first member with this ID (askKey.member)
	left chan struct{}
}

func (p *proxyMember) ID() string { return p.id }

// rendezvous parks the engine on a question and waits for the session to
// deliver the answer; ok is false when the session aborts or the member
// leaves while parked. The engine asks one question at a time, so the
// session's single reply channel carries every answer.
func (p *proxyMember) rendezvous(kind QuestionKind, key string, fs fact.Set, choices []fact.Set, terms []vocab.Term) (payload, bool) {
	a := ask{member: p.idx, kind: kind, key: key, facts: fs, choices: choices, terms: terms}
	select {
	case p.s.askCh <- a:
	case <-p.s.abort:
		return payload{}, false
	case <-p.left:
		return payload{}, false
	}
	// Once the ask is sent the session owns it and always replies (Leave
	// answers with leavePayload), so the engine provably touches no state
	// while the session runs: no left case here.
	select {
	case pay := <-p.s.reply:
		return pay, true
	case <-p.s.abort:
		return payload{}, false
	}
}

// Concrete implements crowd.Member.
func (p *proxyMember) Concrete(fs fact.Set) float64 {
	pay, ok := p.rendezvous(KindConcrete, fs.Key(), fs, nil, nil)
	if !ok {
		return 0
	}
	return pay.support
}

// ChooseSpecialization implements crowd.Member.
func (p *proxyMember) ChooseSpecialization(candidates []fact.Set) crowd.SpecializeResponse {
	pay, ok := p.rendezvous(KindSpecialization, specKey(candidates), nil, candidates, nil)
	if !ok {
		return crowd.DeclineSpecialization()
	}
	return pay.spec()
}

// Irrelevant implements crowd.Member: the pruning click travels through
// the session protocol as a KindPruning question whose answer names the
// clicked term by index (or clicks nothing).
func (p *proxyMember) Irrelevant(terms []vocab.Term) (vocab.Term, bool) {
	if len(terms) == 0 {
		return vocab.None, false
	}
	pay, ok := p.rendezvous(KindPruning, pruneKey(terms), nil, nil, terms)
	if !ok {
		return vocab.None, false
	}
	if pay.chosen && pay.choice >= 0 && int(pay.choice) < len(terms) {
		return terms[pay.choice], true
	}
	return vocab.None, false
}

// Left implements the engine's leaver interface.
func (p *proxyMember) Left() bool {
	select {
	case <-p.left:
		return true
	default:
		return false
	}
}

func (p *proxyMember) leave() {
	select {
	case <-p.left:
	default:
		close(p.left)
	}
}

// specKey builds the ask key of a specialization question from its
// candidate list.
func specKey(candidates []fact.Set) string {
	keys := make([]string, len(candidates))
	for i, c := range candidates {
		keys[i] = c.Key()
	}
	return strings.Join(keys, "||")
}

// pruneKey builds the ask key of a pruning question from its term list.
func pruneKey(terms []vocab.Term) string {
	var b strings.Builder
	for i, t := range terms {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", int(t))
	}
	return b.String()
}
