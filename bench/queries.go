package main

import (
	"fmt"
	"math/rand"
	"strings"

	querygraph "github.com/querygraph/querygraph"
)

// The three query classes. The program under test only ever receives the
// strings; the class is the benchmark's knowledge of what each costs.
const (
	// classEntity: 1-3 article titles of one topic joined by stopword
	// connectors; tens of candidate documents, cost is fixed overhead.
	classEntity = iota
	// classExpanded: the #1(...) phrase title query an Expansion produces.
	classExpanded
	// classCommon: an entity query plus the collection's highest-
	// document-frequency term, so every document is a candidate — the
	// postings-walk and scoring worst case.
	classCommon
	numClasses
)

// stopConnectors are connectors the analyzer drops, so they add no
// scoring leaf (synth also uses "near", which is not a stopword).
var stopConnectors = []string{"in", "of", "at", "with"}

// maxTitles is the most article titles an entity query joins.
const maxTitles = 3

// queryPools holds the distinct query strings of each class.
type queryPools struct {
	class [numClasses][]string
	// entityByTitles[t-1] are the entity strings made of t titles: a query's
	// cost grows with its titles, so a lap draws equally from each.
	entityByTitles [maxTitles][]string
}

// entityQuery draws one entity-class string and says how many titles it
// joins.
func entityQuery(rng *rand.Rand, topics [][]string) (string, int) {
	arts := topics[rng.Intn(len(topics))]
	n := min(1+rng.Intn(maxTitles), len(arts))
	var b strings.Builder
	for i, idx := range rng.Perm(len(arts))[:n] {
		if i > 0 {
			b.WriteString(" " + stopConnectors[rng.Intn(len(stopConnectors))] + " ")
		}
		b.WriteString(arts[idx])
	}
	return b.String(), n
}

// buildPools derives the query strings from the fixture's inputs and the
// workload seed: the same seed gives the same strings in the same order.
func buildPools(fx *fixture, sc scale, seed int64) (*queryPools, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &queryPools{}
	seen := make(map[string]bool)
	distinct := func(n int, gen func() string) ([]string, error) {
		out := make([]string, 0, n)
		for tries := 0; len(out) < n; tries++ {
			if tries > 50*n {
				return nil, fmt.Errorf("fixture %s yields only %d of %d distinct query strings", fx.Meta.Name, len(out), n)
			}
			if q := gen(); !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
		return out, nil
	}
	var err error
	titles := make(map[string]int)
	if p.class[classEntity], err = distinct(sc.EntityPool, func() string {
		q, n := entityQuery(rng, fx.Inputs.Topics)
		titles[q] = n
		return q
	}); err != nil {
		return nil, err
	}
	for _, q := range p.class[classEntity] {
		p.entityByTitles[titles[q]-1] = append(p.entityByTitles[titles[q]-1], q)
	}
	if p.class[classCommon], err = distinct(sc.CommonPool, func() string {
		q, _ := entityQuery(rng, fx.Inputs.Topics)
		return q + " " + fx.Meta.HighDFTerm
	}); err != nil {
		return nil, err
	}
	if len(fx.Inputs.Expanded) == 0 {
		return nil, fmt.Errorf("fixture %s holds no expanded queries", fx.Meta.Name)
	}
	p.class[classExpanded] = append([]string(nil), fx.Inputs.Expanded...)
	rng.Shuffle(len(p.class[classExpanded]), func(i, j int) {
		e := p.class[classExpanded]
		e[i], e[j] = e[j], e[i]
	})
	return p, nil
}

// entities draws n entity strings, the i-th made of i%maxTitles+1 titles:
// left to chance, the share of one-, two- and three-title queries moves a
// lap's median from one seed to the next, because it lies near the border
// between two of them.
func (p *queryPools) entities(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		pool := p.entityByTitles[i%maxTitles]
		if len(pool) == 0 {
			pool = p.class[classEntity]
		}
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// lap draws the n query strings one lap replays. The class shares are
// exact (n*mix/100 each, mix in percent by class, the remainder going to
// the first class) and so are the title counts within the entity class;
// only the strings and their order depend on the seed: the classes differ
// in cost by two orders of magnitude, so a lap whose class counts were
// left to chance would cost ±20% more or less from one seed to the next.
// Otherwise the strings are drawn uniformly; a popularity skew would
// change nothing, because a Pool parses every request without consulting
// the plan cache and a whole lap fits the one qshard keeps (README,
// "Cache state").
func (p *queryPools) lap(seed int64, n int, mix [numClasses]int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	for c := numClasses - 1; c >= 0; c-- {
		if c == classEntity {
			out = append(out, p.entities(rng, n-len(out))...)
			break
		}
		for i := 0; i < n*mix[c]/100; i++ {
			out = append(out, p.class[c][rng.Intn(len(p.class[c]))])
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// gateQueries is the seeded sample of every query class whose answers the
// correctness gate compares across runtimes.
func (p *queryPools) gateQueries(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for c := range p.class {
		for _, i := range rng.Perm(len(p.class[c]))[:min(gatePerClass, len(p.class[c]))] {
			out = append(out, p.class[c][i])
		}
	}
	return out
}

// ingestDocs generates n documents for the live workload in the shape of
// the fixture's own: a couple of article mentions of one topic around
// the words every description carries. External ids are unique per
// (seed, ordinal) and cannot collide with the fixture's numeric ids.
func ingestDocs(rng *rand.Rand, topics [][]string, seed int64, from, n int) []querygraph.Document {
	docs := make([]querygraph.Document, n)
	for i := range docs {
		arts := topics[rng.Intn(len(topics))]
		a, b := arts[rng.Intn(len(arts))], arts[rng.Intn(len(arts))]
		other := topics[rng.Intn(len(topics))]
		docs[i] = querygraph.Document{
			ID:   fmt.Sprintf("live-%d-%d", seed, from+i),
			Name: a + ".jpg",
			Texts: []querygraph.DocumentText{{
				Lang:        "en",
				Description: fmt.Sprintf("%s with %s and %s near %s", other[rng.Intn(len(other))], a, b, other[rng.Intn(len(other))]),
			}},
		}
	}
	return docs
}
