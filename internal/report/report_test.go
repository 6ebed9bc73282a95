package report

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/groundtruth"
	"github.com/querygraph/querygraph/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden from the renderers under test")

var (
	once     sync.Once
	analysis *core.Analysis
	ablation []core.AblationRow
)

func setup(t *testing.T) (*core.Analysis, []core.AblationRow) {
	t.Helper()
	once.Do(func() {
		cfg := synth.Default()
		cfg.Topics = 6
		cfg.ArticlesPerTopic = 12
		cfg.DocsPerTopic = 15
		cfg.Queries = 8
		w, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		s, err := core.FromWorld(w)
		if err != nil {
			panic(err)
		}
		qs := core.QueriesFromWorld(w)
		gts, err := s.BuildAllGroundTruths(context.Background(), qs, core.GroundTruthConfig{
			Search: groundtruth.Config{Seed: 1, MaxIterations: 8, MaxEvaluations: 800},
		})
		if err != nil {
			panic(err)
		}
		analysis, err = s.Analyze(context.Background(), gts, core.AnalysisConfig{})
		if err != nil {
			panic(err)
		}
		ablation, err = s.CompareExpanders(context.Background(), qs, core.AblationConfig{MaxFeatures: 5})
		if err != nil {
			panic(err)
		}
	})
	return analysis, ablation
}

func TestRenderersContainPaperReferences(t *testing.T) {
	a, ab := setup(t)
	cases := map[string]struct {
		out      string
		contains []string
	}{
		"Table2": {Table2(a), []string{"Table 2", "top-1", "top-15", "0.65"}},
		"Table3": {Table3(a), []string{"Table 3", "%categories", "expansion ratio", "0.783"}},
		"Table4": {Table4(a), []string{"Table 4", "2 & 3 & 4 & 5", "0.944"}},
		"Fig5":   {Fig5(a), []string{"Figure 5", "50.53"}},
		"Fig6":   {Fig6(a), []string{"Figure 6", "136.84"}},
		"Fig7a":  {Fig7a(a), []string{"Figure 7a", "0.366", "trend slope"}},
		"Fig7b":  {Fig7b(a), []string{"Figure 7b", "0.380"}},
		"Fig9":   {Fig9(a), []string{"Figure 9", "trend"}},
		"Text3":  {Text3(a), []string{"0.1147", "208.22"}},
		"Ablation": {Ablation(ab), []string{"baseline (no expansion)", "dense cycles (paper)",
			"naive 1-hop links", "cycles, filters off"}},
	}
	for name, c := range cases {
		for _, want := range c.contains {
			if !strings.Contains(c.out, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, c.out)
			}
		}
	}
}

func TestAllIncludesEverySection(t *testing.T) {
	a, ab := setup(t)
	out := All(a, ab)
	for _, section := range []string{
		"Table 2", "Table 3", "Table 4", "Figure 5", "Figure 6",
		"Figure 7a", "Figure 7b", "Figure 9", "Section 3", "Ablation",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("All() missing section %q", section)
		}
	}
	// Without ablation rows the section is omitted.
	out = All(a, nil)
	if strings.Contains(out, "Ablation") {
		t.Error("All(a, nil) should omit the ablation section")
	}
}

func TestTablesAreWellFormedMarkdown(t *testing.T) {
	a, ab := setup(t)
	for _, out := range []string{Table2(a), Table3(a), Table4(a), Fig5(a), Fig6(a), Fig7a(a), Fig7b(a), Fig9(a), Text3(a), Ablation(ab)} {
		var header, separator bool
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "|") {
				if !header {
					header = true
					continue
				}
				if !separator {
					if !strings.HasPrefix(line, "|-") {
						t.Errorf("second table row is not a separator: %q", line)
					}
					separator = true
				}
			}
		}
		if !header || !separator {
			t.Errorf("output lacks a markdown table:\n%s", out)
		}
	}
}

// TestReportGolden pins every table and figure of the setup world byte for
// byte: a refactor of the analysis must leave testdata/report.golden as it
// is, and a change that means to move a number rewrites it with -update.
func TestReportGolden(t *testing.T) {
	a, ab := setup(t)
	got := All(a, ab)
	file := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report differs from %s (rerun with -update if the change is intended)\n got:\n%s\nwant:\n%s", file, got, want)
	}
}
