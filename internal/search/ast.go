// Package search implements the retrieval engine the paper uses through
// INDRI: a query language with #combine, #weight and #1 (exact phrase)
// operators evaluated with Dirichlet-smoothed query likelihood over the
// positional index.
//
// The paper writes expansion queries "in the INDRI query language, based on
// exact phrase matching" from article titles; BuildTitleQuery constructs
// exactly that shape.
package search

import (
	"fmt"
	"strings"

	"github.com/querygraph/querygraph/internal/text"
)

// Node is a query AST node.
type Node interface {
	// String renders the node in the query language (parse-compatible).
	String() string
	node()
}

// Term is a single analyzed term.
type Term struct{ Text string }

func (t Term) String() string { return t.Text }
func (Term) node()            {}

// Phrase is an exact-phrase (#1) operator over analyzed terms: the terms
// must occur adjacent and in order.
type Phrase struct{ Terms []string }

func (p Phrase) String() string { return "#1(" + strings.Join(p.Terms, " ") + ")" }
func (Phrase) node()            {}

// Combine scores the document against each child and sums the log scores
// (query-likelihood product), i.e. INDRI's #combine.
type Combine struct{ Children []Node }

func (c Combine) String() string {
	parts := make([]string, len(c.Children))
	for i, ch := range c.Children {
		parts[i] = ch.String()
	}
	return "#combine(" + strings.Join(parts, " ") + ")"
}
func (Combine) node() {}

// Weight is INDRI's #weight: a weighted sum of child log scores. Weights
// are normalized to sum to 1 at scoring time.
type Weight struct {
	Weights  []float64
	Children []Node
}

func (w Weight) String() string {
	var sb strings.Builder
	sb.WriteString("#weight(")
	for i, ch := range w.Children {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%g %s", w.Weights[i], ch.String())
	}
	sb.WriteByte(')')
	return sb.String()
}
func (Weight) node() {}

// NewPhrase analyzes raw text into a Phrase node using the given analyzer.
// It returns ok=false when analysis leaves no terms (e.g. a stopword-only
// title).
func NewPhrase(raw string, an *text.Analyzer) (Phrase, bool) {
	terms := an.Analyze(raw)
	if len(terms) == 0 {
		return Phrase{}, false
	}
	return Phrase{Terms: terms}, true
}

// BuildTitleQuery builds the paper's expansion query: one exact-phrase
// operator per article title. The titles come analysed (callers keep each
// title's terms, so a title is analysed once however many queries name
// it), and one that analysed to nothing is dropped. When no title is left
// the keywords, analysed by an, back the query off as bare terms; ok=false
// when they too analyse to nothing. The returned phrases share the titles'
// slices, which must not be modified.
func BuildTitleQuery(keywords string, titles [][]string, an *text.Analyzer) (Node, bool) {
	children := make([]Node, 0, len(titles))
	for _, terms := range titles {
		if len(terms) > 0 {
			children = append(children, Phrase{Terms: terms})
		}
	}
	if len(children) == 0 {
		for _, kw := range an.Analyze(keywords) {
			children = append(children, Term{Text: kw})
		}
	}
	if len(children) == 0 {
		return nil, false
	}
	return Combine{Children: children}, true
}
