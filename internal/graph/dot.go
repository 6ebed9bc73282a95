package graph

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// WriteDOT renders the subgraph of g that nodes induce — all of g when
// nodes is nil — in Graphviz DOT format for inspection, in the visual
// language of the paper's Figure 3: articles as ellipses, categories as
// boxes, with one edge per relation labeled by kind. nodes must be
// ascending ids of g without repeats; node i of the rendering is nodes[i].
// The label function supplies node captions from ids of g; a nil label
// prints those ids. Output order is deterministic.
func (g *Graph) WriteDOT(w io.Writer, name string, nodes []NodeID, label func(NodeID) string) error {
	if nodes == nil {
		nodes = make([]NodeID, g.NumNodes())
		for i := range nodes {
			nodes[i] = NodeID(i)
		}
	}
	if label == nil {
		label = func(n NodeID) string { return fmt.Sprintf("n%d", n) }
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for i, id := range nodes {
		shape := "ellipse"
		if g.Kind(id) == Category {
			shape = "box"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", i, label(id), shape)
	}
	for i, id := range nodes {
		for _, a := range g.out[id] {
			j, in := slices.BinarySearch(nodes, a.To)
			if !in {
				continue
			}
			style := ""
			if a.Kind == Redirect {
				style = " style=dashed"
			}
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q%s];\n", i, j, a.Kind.String(), style)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
