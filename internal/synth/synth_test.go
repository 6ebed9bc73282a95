package synth

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/querygraph/querygraph/internal/cycles"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/linking"
)

// smallConfig keeps generation fast in tests.
func smallConfig() Config {
	cfg := Default()
	cfg.Topics = 8
	cfg.ArticlesPerTopic = 12
	cfg.DocsPerTopic = 15
	cfg.Queries = 12
	cfg.NoiseVocab = 60
	return cfg
}

func generate(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateCounts(t *testing.T) {
	cfg := smallConfig()
	w := generate(t, cfg)
	if got := w.Snapshot.NumArticles(); got != cfg.Topics*cfg.ArticlesPerTopic {
		t.Errorf("articles = %d, want %d", got, cfg.Topics*cfg.ArticlesPerTopic)
	}
	// Shared topic categories + per-topic leaf pools + supers + root.
	wantCats := cfg.Topics*(cfg.CategoriesPerTopic+cfg.ArticlesPerTopic) +
		(cfg.Topics+cfg.TopicsPerSuper-1)/cfg.TopicsPerSuper + 1
	if got := w.Snapshot.NumCategories(); got != wantCats {
		t.Errorf("categories = %d, want %d", got, wantCats)
	}
	if got := w.Collection.Len(); got != cfg.Topics*cfg.DocsPerTopic {
		t.Errorf("docs = %d, want %d", got, cfg.Topics*cfg.DocsPerTopic)
	}
	if len(w.Queries) != cfg.Queries {
		t.Errorf("queries = %d, want %d", len(w.Queries), cfg.Queries)
	}
	if len(w.TopicOfDoc) != w.Collection.Len() {
		t.Error("TopicOfDoc length mismatch")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	w1 := generate(t, cfg)
	w2 := generate(t, cfg)
	if w1.Snapshot.Stats() != w2.Snapshot.Stats() {
		t.Errorf("snapshot stats differ: %+v vs %+v", w1.Snapshot.Stats(), w2.Snapshot.Stats())
	}
	if w1.Collection.Len() != w2.Collection.Len() {
		t.Fatal("collection size differs")
	}
	for i := range w1.Queries {
		if w1.Queries[i].Keywords != w2.Queries[i].Keywords {
			t.Fatalf("query %d keywords differ: %q vs %q",
				i, w1.Queries[i].Keywords, w2.Queries[i].Keywords)
		}
	}
	d1, _ := w1.Collection.Doc(0)
	d2, _ := w2.Collection.Doc(0)
	if d1.Text != d2.Text {
		t.Errorf("doc 0 text differs:\n%q\n%q", d1.Text, d2.Text)
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	w1 := generate(t, cfg)
	cfg.Seed = 99
	w2 := generate(t, cfg)
	if w1.Queries[0].Keywords == w2.Queries[0].Keywords {
		t.Error("different seeds should give different worlds")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Topics = 0 },
		func(c *Config) { c.ArticlesPerTopic = 1 },
		func(c *Config) { c.CategoriesPerTopic = 0 },
		func(c *Config) { c.TopicsPerSuper = 0 },
		func(c *Config) { c.DocsPerTopic = 0 },
		func(c *Config) { c.MentionsPerDoc = 0 },
		func(c *Config) { c.Queries = 0 },
		func(c *Config) { c.QueryArticlesMax = 0 },
		func(c *Config) { c.NoiseVocab = 0 },
		func(c *Config) { c.HubLinkProb = 1.5 },
		func(c *Config) { c.ReciprocalProb = -0.1 },
	}
	for i, mutate := range bad {
		cfg := Default()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestReciprocalRatioNearTarget(t *testing.T) {
	cfg := Default()
	cfg.Topics = 20
	cfg.DocsPerTopic = 1 // corpus size irrelevant here
	cfg.Queries = 1
	w := generate(t, cfg)
	got := w.Snapshot.ReciprocalLinkRatio()
	// The paper measures 11.47% on Wikipedia. Hub backlinks and intra-topic
	// backlinks both contribute; the generator should land in a band around
	// the target.
	if got < 0.05 || got > 0.30 {
		t.Errorf("reciprocal link ratio = %g, want within [0.05, 0.30]", got)
	}
}

func TestCategoryGraphTriangleFree(t *testing.T) {
	w := generate(t, smallConfig())
	g := w.Snapshot.Graph()
	onlyInside := func(k graph.EdgeKind) bool { return k != graph.Inside }
	m := cycles.NewMiner(g, g.NodesOfKind(graph.Category), onlyInside)
	defer m.Release()
	triangles := 0
	if err := m.Walk(nil, 3, func(c cycles.Metrics) error {
		if c.Length == 3 {
			triangles++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if triangles != 0 {
		t.Errorf("category graph has %d triangles, want 0 (tree-like)", triangles)
	}
}

func TestQueriesHaveRelevantDocsAndEntities(t *testing.T) {
	w := generate(t, smallConfig())
	for _, q := range w.Queries {
		if len(q.Relevant) == 0 {
			t.Fatalf("query %d has no relevant docs", q.ID)
		}
		if len(q.Entities) == 0 {
			t.Fatalf("query %d has no entities", q.ID)
		}
		if q.Keywords == "" {
			t.Fatalf("query %d has empty keywords", q.ID)
		}
		for _, d := range q.Relevant {
			if w.TopicOfDoc[d] != q.Topic {
				t.Fatalf("query %d: relevant doc %d belongs to topic %d, want %d",
					q.ID, d, w.TopicOfDoc[d], q.Topic)
			}
		}
		// Entities are sorted and unique.
		for i := 1; i < len(q.Entities); i++ {
			if q.Entities[i-1] >= q.Entities[i] {
				t.Fatalf("query %d entities not sorted/unique: %v", q.ID, q.Entities)
			}
		}
	}
}

func TestQueryKeywordsLinkable(t *testing.T) {
	w := generate(t, smallConfig())
	l := linking.New(w.Snapshot)
	for _, q := range w.Queries {
		found := l.LinkMain(q.Keywords)
		set := make(map[graph.NodeID]bool, len(found))
		for _, id := range found {
			set[id] = true
		}
		for _, want := range q.Entities {
			if !set[want] {
				t.Fatalf("query %d (%q): entity %q not recovered by linking (got %v)",
					q.ID, q.Keywords, w.Snapshot.Name(want), found)
			}
		}
	}
}

func TestDocumentsMentionTopicArticles(t *testing.T) {
	w := generate(t, smallConfig())
	l := linking.New(w.Snapshot)
	topicSet := make([]map[graph.NodeID]bool, len(w.TopicArticles))
	for t2, arts := range w.TopicArticles {
		topicSet[t2] = make(map[graph.NodeID]bool, len(arts))
		for _, a := range arts {
			topicSet[t2][a] = true
		}
	}
	misses := 0
	for _, doc := range w.Collection.Docs() {
		topic := w.TopicOfDoc[doc.ID]
		hit := false
		for _, id := range l.LinkMain(doc.Text) {
			if topicSet[topic][id] {
				hit = true
				break
			}
		}
		if !hit {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("%d/%d documents mention no article of their own topic",
			misses, w.Collection.Len())
	}
}

func TestGermanSectionExcludedFromText(t *testing.T) {
	w := generate(t, smallConfig())
	doc, err := w.Collection.Doc(0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(doc.Text, "ein bild") {
		t.Errorf("German section leaked into relevant text: %q", doc.Text)
	}
	if !strings.Contains(doc.Image.Comment, "Description=") {
		t.Errorf("comment template missing: %q", doc.Image.Comment)
	}
}

func TestRedirectsGenerated(t *testing.T) {
	w := generate(t, smallConfig())
	if w.Snapshot.NumRedirects() == 0 {
		t.Error("no redirects generated")
	}
}

func TestNameGenUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ng := newNameGen(rng)
	seen := make(map[string]struct{})
	for i := 0; i < 5000; i++ {
		n := ng.unique(1 + i%3)
		if _, dup := seen[n]; dup {
			t.Fatalf("duplicate name %q at iteration %d", n, i)
		}
		seen[n] = struct{}{}
	}
}

func TestTitleCase(t *testing.T) {
	if got := titleCase("grand canal"); got != "Grand Canal" {
		t.Errorf("titleCase = %q", got)
	}
	if got := titleCase(""); got != "" {
		t.Errorf("titleCase(empty) = %q", got)
	}
}
