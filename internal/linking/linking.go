// Package linking implements the entity-linking step of the paper's
// Section 2.1: representing a text as the set of Wikipedia articles whose
// titles occur in it.
//
// The process "consists in identifying the set of the largest substrings in
// the input query that matches with the title of an article in Wikipedia";
// additionally the paper searches synonym phrases, where a term of the
// input is replaced by a synonymous term derived from Wikipedia redirects
// (given a term t whose title matches article a, the synonyms of t are the
// titles of the redirects of a, and symmetrically the main title when t is
// itself a redirect).
//
// The Linker builds a token-level trie over every normalized title
// (articles, redirects and categories are all in the dictionary; only
// article titles produce mentions) and runs greedy maximal-munch matching
// left to right, allowing at most one synonym substitution per mention.
package linking

import (
	"slices"

	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/text"
	"github.com/querygraph/querygraph/internal/wiki"
)

// Mention is one matched article occurrence in the input text.
type Mention struct {
	Node graph.NodeID // matched article (may be a redirect article)
	// Start and End are the token span [Start, End) in the tokenized input.
	Start, End int
	// Substituted reports whether the match needed a synonym substitution.
	Substituted bool
}

type trieNode struct {
	children map[string]*trieNode
	terminal bool
	node     graph.NodeID
}

func (tn *trieNode) child(tok string) *trieNode {
	if tn.children == nil {
		return nil
	}
	return tn.children[tok]
}

func (tn *trieNode) ensure(tok string) *trieNode {
	if tn.children == nil {
		tn.children = make(map[string]*trieNode)
	}
	ch, ok := tn.children[tok]
	if !ok {
		ch = &trieNode{}
		tn.children[tok] = ch
	}
	return ch
}

// Linker links free text to the articles of one Snapshot. It is safe for
// concurrent use once constructed.
type Linker struct {
	snap *wiki.Snapshot
	root *trieNode
	// synonyms maps a single token to the alternative token sequences
	// derived from redirects (redirect title <-> main title).
	synonyms map[string][][]string
}

// New builds the linker's trie and synonym table from the snapshot.
func New(snap *wiki.Snapshot) *Linker {
	l := &Linker{
		snap:     snap,
		root:     &trieNode{},
		synonyms: make(map[string][][]string),
	}
	g := snap.Graph()
	for norm, id := range snap.Titles() {
		if g.Kind(id) != graph.Article {
			continue // category names are not linkable entities
		}
		tokens := text.Tokenize(norm)
		cur := l.root
		for _, tok := range tokens {
			cur = cur.ensure(tok)
		}
		cur.terminal = true
		cur.node = id
	}
	// Synonym table: for every single-token article title, the alternative
	// titles of the same underlying main article.
	for norm, id := range snap.Titles() {
		if g.Kind(id) != graph.Article {
			continue
		}
		tokens := text.Tokenize(norm)
		if len(tokens) != 1 {
			continue
		}
		main := snap.MainOf(id)
		var alts [][]string
		addAlt := func(altID graph.NodeID) {
			if altID == id {
				return
			}
			altTokens := text.Tokenize(snap.Name(altID))
			if len(altTokens) > 0 {
				alts = append(alts, altTokens)
			}
		}
		addAlt(main)
		for _, r := range snap.RedirectsTo(main) {
			addAlt(r)
		}
		if len(alts) > 0 {
			l.synonyms[tokens[0]] = alts
		}
	}
	return l
}

// match is a trie walk outcome: the number of input tokens consumed and the
// matched article.
type match struct {
	consumed    int
	node        graph.NodeID
	substituted bool
}

// longestFrom finds the longest match starting at tokens[start]. Literal
// consumption is always tried; at most one token may be replaced by one of
// its synonym expansions. Longer matches win; on equal length a literal
// match beats a substituted one.
func (l *Linker) longestFrom(tokens []string, start int) (match, bool) {
	best := match{}
	found := false
	better := func(m match) bool {
		if !found {
			return true
		}
		if m.consumed != best.consumed {
			return m.consumed > best.consumed
		}
		return best.substituted && !m.substituted
	}
	// walk explores from trie node tn at input offset i.
	var walk func(tn *trieNode, i int, substituted bool)
	walk = func(tn *trieNode, i int, substituted bool) {
		if tn.terminal {
			m := match{consumed: i - start, node: tn.node, substituted: substituted}
			if m.consumed > 0 && better(m) {
				best = m
				found = true
			}
		}
		if i >= len(tokens) {
			return
		}
		if next := tn.child(tokens[i]); next != nil {
			walk(next, i+1, substituted)
		}
		if substituted {
			return
		}
		for _, alt := range l.synonyms[tokens[i]] {
			cur := tn
			ok := true
			for _, altTok := range alt {
				cur = cur.child(altTok)
				if cur == nil {
					ok = false
					break
				}
			}
			if ok {
				walk(cur, i+1, true)
			}
		}
	}
	walk(l.root, start, false)
	return best, found
}

// Link tokenizes the input and returns the mentions found by greedy
// maximal-munch matching, in input order. Overlaps are not produced: after
// a match the scan resumes past it, mirroring the paper's "largest
// substrings" extraction.
func (l *Linker) Link(input string) []Mention {
	tokens := text.Tokenize(input)
	var out []Mention
	for i := 0; i < len(tokens); {
		m, ok := l.longestFrom(tokens, i)
		if !ok {
			i++
			continue
		}
		out = append(out, Mention{
			Node:        m.node,
			Start:       i,
			End:         i + m.consumed,
			Substituted: m.substituted,
		})
		i += m.consumed
	}
	return out
}

// LinkMain returns the deduplicated set of main articles mentioned in the
// input, sorted ascending: matched redirects are resolved through MainOf.
func (l *Linker) LinkMain(input string) []graph.NodeID {
	ms := l.Link(input)
	out := make([]graph.NodeID, len(ms))
	for i, m := range ms {
		out[i] = l.snap.MainOf(m.Node)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
