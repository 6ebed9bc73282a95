package core

import (
	"io"
	"os"

	"github.com/querygraph/querygraph/internal/store"
)

// Save writes the system's complete serving state — knowledge base, corpus
// and positional index — plus an optional query benchmark as a versioned,
// checksummed binary snapshot (internal/store).
// LoadSystem on the written bytes serves bit-identical Search, Expand and
// Analyze results without re-running world generation, relevant-text
// extraction, entity-dictionary construction or indexing.
func (s *System) Save(w io.Writer, queries []Query) error {
	return store.Write(w, s.Archive(queries))
}

// Archive is the system's complete serving state in snapshot form — what
// Save writes and what the shard partitioner (internal/shard) splits. The
// archive shares the system's substrates; it must be treated as read-only.
func (s *System) Archive(queries []Query) *store.Archive {
	arch := &store.Archive{
		Snapshot:   s.Snapshot,
		Collection: s.Collection,
		Index:      s.Engine.Index(),
	}
	if len(queries) > 0 {
		arch.Queries = make([]store.Query, len(queries))
		for i, q := range queries {
			arch.Queries[i] = store.Query(q)
		}
	}
	return arch
}

// LoadSystem decodes a snapshot written by Save and assembles a serving
// System around the decoded state. This is the build-once/serve-instantly
// startup path: the graph, title dictionary, corpus and inverted index are
// decoded directly through the substrate Load constructors, not rebuilt,
// so startup cost is dominated by reading the bytes (BenchmarkLoadSystem
// vs BenchmarkRebuildSystem). The engine is NewSystem's: mu 2500 and the
// one analyzer (store.Read refuses a snapshot saved with any other
// configuration), with opts such as WithExpandCache applied. The saved
// query benchmark is returned alongside (empty when none was saved).
func LoadSystem(r io.Reader, opts ...SystemOption) (*System, []Query, error) {
	arch, err := store.Read(r)
	if err != nil {
		return nil, nil, err
	}
	return SystemFromArchive(arch, opts...)
}

// LoadSystemFile is LoadSystem over a snapshot file path — the one-liner
// every -load flag (qbench, qgraph, the examples) goes through.
func LoadSystemFile(path string, opts ...SystemOption) (*System, []Query, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return LoadSystem(f, opts...)
}

// SystemFromArchive assembles a serving System around an already decoded
// archive — the assembly half of LoadSystem, split out so the sharded
// runtime (internal/shard) can inspect the archive's partition identity
// before wrapping each shard in its own System.
func SystemFromArchive(arch *store.Archive, opts ...SystemOption) (*System, []Query, error) {
	s, err := assemble(arch.Snapshot, arch.Collection, arch.Index, newAnalyzer(), opts)
	if err != nil {
		return nil, nil, err
	}
	var queries []Query
	if len(arch.Queries) > 0 {
		queries = make([]Query, len(arch.Queries))
		for i, q := range arch.Queries {
			queries[i] = Query(q)
		}
	}
	return s, queries, nil
}
