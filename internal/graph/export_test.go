package graph

// The fixtures of this package's tests, for those in package graph_test.
var (
	BuildDiamond = buildDiamond
	RandomGraph  = randomGraph
)
