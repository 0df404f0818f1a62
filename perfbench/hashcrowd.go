package main

import (
	"fmt"
	"hash/fnv"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// The serving workloads run the paper's Figure-1 NYC query at four
// supports (four plans, each shared by every session that asks it) and
// answer from a hash crowd: every assignment of the query's lattice gets a
// level drawn from a hash of the seed, the session's crowd variant and the
// question text, and the crowd's answer to a question is the lowest level
// of the asked assignment and every assignment more general than it. The
// answers are therefore monotone, as the paper's support is: a more
// specific pattern never scores higher. That makes the right MSPs of a
// variant a property of its answers alone, found below by brute force
// over the lattice, without the engine. Answers depend on nothing but the
// question, so every session of one variant mines the same MSPs whoever
// answers and in whatever order, in-process or over HTTP. A run cycles its
// sessions through a catalog of crowdVariants crowds per support: its
// figures then average thousands of different lattices instead of four,
// which keeps the seed's effect on the totals small.

var fleetSupports = []float64{0.2, 0.4, 0.6, 0.8}

const crowdVariants = 2048

func nycQuery(support float64) string {
	return fmt.Sprintf(`
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y doAt $x
WITH SUPPORT = %.1f
`, support)
}

// variant is one (support, crowd) pair.
type variant struct {
	support int // index into fleetSupports
	salt    uint32
}

func fleetVariants(seed int64) []variant {
	var out []variant
	for c := 0; c < crowdVariants; c++ {
		for s := range fleetSupports {
			out = append(out, variant{support: s, salt: uint32(seed)*2654435761 + uint32(c)*40503})
		}
	}
	return out
}

// rawLevel is the level the hash gives one assignment's question text
// before the monotone closure: 4 (the top of the five-level scale) seven
// times in eight, else 0 to 3.
func rawLevel(salt uint32, text string) uint8 {
	h := fnv.New32a()
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(salt), byte(salt>>8), byte(salt>>16), byte(salt>>24)
	h.Write(b[:])
	h.Write([]byte(text))
	x := h.Sum32()
	if x%8 != 0 {
		return 4
	}
	return uint8(x / 8 % 4)
}

// lattice is every assignment of the NYC query at one support, found by
// walking Successors from the minimal ones, with what the crowd and the
// brute-force reference need of each.
type lattice struct {
	index  map[string]int // question text -> node
	anc    [][]int        // per node: the nodes more general or equal (Leq)
	valid  []bool         // in the query's output domain
	format []string       // the MSP as the results route prints it
	theta  float64
}

func newLattice(sp *assign.Space, voc *vocab.Vocabulary, tpl *crowd.Templates, theta float64) (*lattice, error) {
	var nodes []assign.Assignment
	seen := map[string]bool{}
	for queue := sp.Minimal(); len(queue) > 0; queue = queue[1:] {
		a := queue[0]
		if seen[a.Key()] {
			continue
		}
		seen[a.Key()] = true
		nodes = append(nodes, a)
		queue = append(queue, sp.Successors(a)...)
	}
	l := &lattice{index: map[string]int{}, anc: make([][]int, len(nodes)),
		valid: make([]bool, len(nodes)), format: make([]string, len(nodes)), theta: theta}
	for i, n := range nodes {
		l.index[tpl.Concrete(sp.Instantiate(n))] = i
		l.valid[i] = sp.IsValid(n)
		l.format[i] = sp.Instantiate(n).Format(voc)
		for j, m := range nodes {
			if sp.Leq(m, n) {
				l.anc[i] = append(l.anc[i], j)
			}
		}
	}
	if len(l.index) != len(nodes) {
		// The crowd answers by question text, so each must name one node.
		return nil, fmt.Errorf("%d lattice nodes share %d question texts", len(nodes), len(l.index))
	}
	return l, nil
}

// levels is one crowd's answer level for every node of the lattice: the
// least raw level over the node and every node more general than it.
func (l *lattice) levels(salt uint32) []uint8 {
	raw := make([]uint8, len(l.anc))
	for text, i := range l.index {
		raw[i] = rawLevel(salt, text)
	}
	out := make([]uint8, len(l.anc))
	for i, anc := range l.anc {
		lv := uint8(4)
		for _, j := range anc {
			if raw[j] < lv {
				lv = raw[j]
			}
		}
		out[i] = lv
	}
	return out
}

// msps is the brute-force answer: the valid nodes whose level reaches the
// support and that no more specific such node lies above, as a digest.
func (l *lattice) msps(levels []uint8) string {
	sig := func(i int) bool { return float64(levels[i])*0.25 >= l.theta-aggregate.Eps }
	var out []string
	for i := range l.anc {
		if !sig(i) || !l.valid[i] {
			continue
		}
		maximal := true
		for j, anc := range l.anc {
			if j != i && sig(j) && contains(anc, i) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, l.format[i])
		}
	}
	return digest(out)
}

func contains(s []int, x int) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

// hashCrowd answers every variant's questions from its levels.
type hashCrowd struct {
	lat    []*lattice // per support
	levels [][]uint8  // per variant
}

// level is variant v's answer to the concrete question with the given
// text; ok is false for a question outside the lattice.
func (c *hashCrowd) level(vs []variant, v int, text string) (int, bool) {
	i, ok := c.lat[vs[v].support].index[text]
	if !ok {
		return 0, false
	}
	return int(c.levels[v][i]), true
}

// hashMember is the reference run's member: it answers like the
// serving drivers do, from the rendered question text.
type hashMember struct {
	id  string
	lv  []uint8
	lat *lattice
	tpl *crowd.Templates
}

func (m hashMember) ID() string { return m.id }

func (m hashMember) Concrete(fs fact.Set) float64 {
	i, ok := m.lat.index[m.tpl.Concrete(fs)]
	if !ok {
		return 0 // outside the lattice: the MSP comparison will tell
	}
	return float64(m.lv[i]) * 0.25
}

func (m hashMember) ChooseSpecialization([]fact.Set) crowd.SpecializeResponse {
	return crowd.DeclineSpecialization()
}

func (m hashMember) Irrelevant([]vocab.Term) (vocab.Term, bool) { return vocab.None, false }

// expected is the reference outcome of one variant.
type expected struct {
	msps      string // digest of the formatted valid MSPs, by brute force
	questions int    // crowd questions the sequential engine asks
}

// mspDigest formats a result's valid MSPs as the HTTP results route does
// and hashes them.
func mspDigest(sp *assign.Space, voc *vocab.Vocabulary, res *core.Result) string {
	out := make([]string, len(res.ValidMSPs))
	for i, m := range res.ValidMSPs {
		out[i] = sp.Instantiate(m).Format(voc)
	}
	return digest(out)
}

// fleetReference builds the crowd of every variant and its expected
// outcome: the MSPs by brute force over the lattice, and the number of
// crowd questions the engine's sequential driver (core.Run) asks with
// `members` hash members and one answer per question. A variant on which
// core.Run itself misses the brute-force MSPs is returned in wrong.
func fleetReference(vs []variant, members int) (*hashCrowd, []expected, []int, error) {
	sample := ontology.NewSample()
	dom, err := core.NewDomain(sample.Voc, sample.Onto)
	if err != nil {
		return nil, nil, nil, err
	}
	tpl := crowd.NewTemplates(sample.Voc)
	c := &hashCrowd{levels: make([][]uint8, len(vs))}
	var runs []func(crowdMembers []crowd.Member) (*assign.Space, *core.Result)
	for _, s := range fleetSupports {
		q, err := oassisql.Parse(nycQuery(s))
		if err != nil {
			return nil, nil, nil, err
		}
		pl, _, err := dom.Compile(q, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		ord, err := pl.Ordering()
		if err != nil {
			return nil, nil, nil, err
		}
		lat, err := newLattice(pl.NewSpace(), sample.Voc, tpl, pl.Support)
		if err != nil {
			return nil, nil, nil, err
		}
		c.lat = append(c.lat, lat)
		runs = append(runs, func(crowdMembers []crowd.Member) (*assign.Space, *core.Result) {
			sp := pl.NewSpace()
			return sp, core.Run(core.Config{Space: sp, Theta: pl.Support, Ordering: ord,
				Members: crowdMembers, Agg: aggregate.NewFixedSample(1)})
		})
	}
	out := make([]expected, len(vs))
	var wrong []int
	for i, v := range vs {
		lat := c.lat[v.support]
		c.levels[i] = lat.levels(v.salt)
		crowdMembers := make([]crowd.Member, members)
		for m := range crowdMembers {
			crowdMembers[m] = hashMember{id: fmt.Sprintf("p%02d", m), lv: c.levels[i], lat: lat, tpl: tpl}
		}
		sp, res := runs[v.support](crowdMembers)
		out[i] = expected{msps: lat.msps(c.levels[i]), questions: res.Stats.TotalQuestions}
		if mspDigest(sp, sample.Voc, res) != out[i].msps {
			wrong = append(wrong, i)
		}
	}
	return c, out, wrong, nil
}
