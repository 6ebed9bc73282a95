package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/querygraph/querygraph/internal/synth"
)

// TestSaveLoadRoundTripIdentical is the snapshot subsystem's contract
// proof: on randomized small worlds, a system decoded by LoadSystem
// returns bit-identical Search, Expand and Analyze results to the freshly
// constructed system it was saved from. Scores are float64-compared with
// ==, not a tolerance — the decoded index must reproduce the exact same
// arithmetic, not merely similar rankings.
func TestSaveLoadRoundTripIdentical(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := synth.Default()
			cfg.Seed = seed
			cfg.Topics = 4 + rng.Intn(4)
			cfg.ArticlesPerTopic = 8 + rng.Intn(8)
			cfg.DocsPerTopic = 10 + rng.Intn(10)
			cfg.Queries = 6 + rng.Intn(5)
			cfg.NoiseVocab = 60
			w, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := FromWorld(w)
			if err != nil {
				t.Fatal(err)
			}
			qs := QueriesFromWorld(w)

			var buf bytes.Buffer
			if err := fresh.Save(&buf, qs); err != nil {
				t.Fatalf("Save: %v", err)
			}
			loaded, loadedQs, err := LoadSystem(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("LoadSystem: %v", err)
			}
			if !reflect.DeepEqual(loadedQs, qs) {
				t.Fatalf("query benchmark did not survive the round trip:\ngot  %+v\nwant %+v", loadedQs, qs)
			}

			// Expand and Search parity per benchmark query.
			opts := DefaultExpanderOptions()
			for _, q := range qs {
				e1, err := fresh.Expand(context.Background(), q.Keywords, opts)
				if err != nil {
					t.Fatal(err)
				}
				e2, err := loaded.Expand(context.Background(), q.Keywords, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(e1, e2) {
					t.Fatalf("query %d: expansions differ:\nfresh  %+v\nloaded %+v", q.ID, e1, e2)
				}
				n1, ok1, err1 := e1.Query(fresh)
				n2, ok2, err2 := e2.Query(loaded)
				if err1 != nil || err2 != nil {
					t.Fatalf("query %d: %v, %v", q.ID, err1, err2)
				}
				if ok1 != ok2 {
					t.Fatalf("query %d: buildability differs (%v vs %v)", q.ID, ok1, ok2)
				}
				if !ok1 {
					continue
				}
				r1, err := fresh.Engine.Search(n1, MaxRank)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := loaded.Engine.Search(n2, MaxRank)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r1, r2) {
					t.Fatalf("query %d: rankings differ:\nfresh  %v\nloaded %v", q.ID, r1, r2)
				}
			}

			// Analyze parity: the full Tables 2-4 / Figures 5-9 pipeline.
			gts1, err := fresh.BuildAllGroundTruths(context.Background(), qs, gtConfig())
			if err != nil {
				t.Fatal(err)
			}
			gts2, err := loaded.BuildAllGroundTruths(context.Background(), qs, gtConfig())
			if err != nil {
				t.Fatal(err)
			}
			a1, err := fresh.Analyze(context.Background(), gts1, AnalysisConfig{})
			if err != nil {
				t.Fatal(err)
			}
			a2, err := loaded.Analyze(context.Background(), gts2, AnalysisConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a1, a2) {
				t.Fatalf("analyses differ:\nfresh  %+v\nloaded %+v", a1, a2)
			}
		})
	}
}

// TestSaveLoadRestoresEngineConfig proves a loaded System runs the one
// engine configuration — mu 2500, stopword removal, stemming — and that
// options still apply on top at load time.
func TestSaveLoadRestoresEngineConfig(t *testing.T) {
	s, _ := testSystem(t)
	var buf bytes.Buffer
	if err := s.Save(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, qs, err := LoadSystem(bytes.NewReader(buf.Bytes()), WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 0 {
		t.Errorf("no queries were saved, got %d", len(qs))
	}
	if got := loaded.Engine.Mu(); got != 2500 {
		t.Errorf("mu: got %g, want 2500", got)
	}
	if !loaded.analyzer.RemovesStopwords() || !loaded.analyzer.Stems() {
		t.Error("loaded analyzer does not remove stopwords and stem")
	}
	if loaded.expandCache != nil {
		t.Error("WithExpandCache(0) ignored by LoadSystem")
	}
}
