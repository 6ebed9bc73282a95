// Package querygraph reproduces "Understanding Graph Structure of Wikipedia
// for Query Expansion" (Guisado-Gámez & Prat-Pérez, 2015) as a complete,
// self-contained Go system, and exposes it as a context-aware serving API.
//
// # The Backend contract
//
// Every serving runtime — the single-snapshot *Client, the sharded
// hot-reloadable *Pool and the *Remote coordinator of a qshard fleet —
// satisfies the one Backend interface, and OpenBackend sniffs which
// artifact a path holds, so callers never branch on deployment shape:
//
//	be, err := querygraph.OpenBackend(path)       // .qgs snapshot, shard manifest or fleet topology
//	defer be.Close()                              // retire; later calls return ErrClosed
//	results, err := be.Search(ctx, "venice #1(grand canal)", 15)
//	exp, err := be.Expand(ctx, "doge palace venice")
//	results, ok, err := be.SearchExpansion(ctx, exp, 15)
//
// ExpandRequest composes the paper's online method over a Backend —
// expansion with its options, then with K > 0 the expanded retrieval:
//
//	resp, err := querygraph.ExpandRequest{Keywords: "doge palace", K: 15}.Do(ctx, be)
//
// # The client
//
// Client and Pool are one local runtime: both embed the same
// generation-pinned machinery — the Backend methods, the live-index write
// path, hot swap and drain — over a set of partitions, and a Client is
// the case of one. A Client is one loaded knowledge base, document
// collection, search engine and entity linker, safe for concurrent use:
//
//	client, err := querygraph.Open("world.qgs")   // decode a snapshot: serve instantly
//	client, err := querygraph.OpenReader(r)       // the same over any reader
//	client, err := querygraph.Build(world)        // index a generated world: build once
//
// Snapshots are written by Client.Save (or cmd/qgen with -out world.qgs)
// and decoded, not rebuilt, at Open time. Worlds come from GenerateWorld,
// which deterministically produces a Wikipedia-shaped knowledge base, an
// ImageCLEF-shaped collection and a query benchmark from one seed. Beyond
// the Backend surface, a Client carries the research pipeline
// (Analyze, GroundTruth(s), CompareExpanders, MineCycles, Evaluate).
// Analyze and MineCycles keep the paper's settings, cycles of 2 to 5
// edges and Figure 9 in 10 density bins, and take no option for them;
// MineCycles returns its cycles by length, then node sequence:
//
//	batch, err := client.ExpandAll(ctx, keywords, querygraph.BatchOptions{})
//	analysis, err := client.Analyze(ctx, querygraph.AnalyzeOptions{})
//
// Expand implements the paper's conclusions as an online engine: it
// entity-links the keywords, mines cycles of length <= 5 in the Wikipedia
// neighborhood of the entities, keeps the structurally promising cycles
// (dense, category ratio around 30%) and proposes the articles they
// introduce as expansion features. Results are memoized in a sharded LRU
// cache, so heavy traffic with repeated queries is served from memory.
//
// # The sharded pool
//
// Beyond one machine's snapshot, a Pool serves a hash-partitioned
// generation — per-shard snapshots plus a manifest, written by
// Client.SaveShards or qgen -shards N — with the knowledge graph
// replicated and the corpus/index partitioned:
//
//	pool, err := querygraph.OpenPool("world4/manifest.json")
//	results, err := pool.Search(ctx, "venice #1(grand canal)", 15)
//	err = pool.Reload("")                         // hot-swap to the next generation
//
// Retrieval scatters to every shard under globally aggregated collection
// statistics and merges, so a Pool returns bit-identical results to a
// Client on the same world at any shard count; expansion runs once on the
// replicated graph. Reload assembles the next generation off to the side
// and swaps it in with zero downtime: in-flight requests finish on the
// generation they started with, and a failed reload (ErrBadManifest)
// leaves serving untouched. Close retires either handle the same way —
// the live generation drains before Close returns.
//
// # The live index
//
// Ingest appends documents to an in-memory delta segment that is
// searchable by the time the call returns — one more source of the same
// scatter, scored under merged statistics, bit-identical to a cold
// rebuild — and Compact folds the segment into a fresh generation and
// hot-swaps it (in memory on a Client, through the manifest on a Pool):
//
//	st, err := be.Ingest(ctx, docs)               // atomic batch; ErrDeltaFull past WithDeltaCapacity
//	cs, err := be.Compact(ctx)                    // results identical before and after
//
// # The remote coordinator
//
// OpenTopology connects to a fleet of cmd/qshard processes, one per shard
// snapshot, and serves the Backend contract by two-phase fan-out over a
// binary RPC protocol (plan, aggregate, top-k, merge) with retries,
// replica failover, hedging and a fail/degrade policy (ErrPartialResult).
// It is read-only: Ingest and Compact return ErrReadOnly.
//
// # Instrumentation
//
// WithObserver attaches an Observer — one method, Observe(Event) — that
// receives one flat Event per completed operation of every runtime: its
// Op (search, expand, batch, reload, ingest, compact, or one shard RPC
// attempt of a Remote), duration, error class and shard count, plus the
// fields that mean something for that Op — ranking depth, expansion cache
// outcome (hit/miss/bypass), batch size, served
// generation, delta size, shard address and attempt number. Success and
// failure are reported alike, the fast failures included. MetricsObserver
// is the built-in counter implementation; its WritePrometheus renders the
// Prometheus text format cmd/qserve serves at GET /v1/metrics.
//
// # Contexts, Close and the order of errors
//
// Every Backend method reaches its runtime through one request envelope,
// so all three runtimes check the same gates in the same order: a context
// that is already done returns ctx.Err(), then a closed backend returns
// ErrClosed, and only then does the method look at its arguments
// (ErrInvalidQuery, ErrInvalidOptions, ErrReadOnly, ...). Neither gate
// runs any pipeline, and both still emit the operation's Event. A panic
// inside a request is that request's error (class "internal"), and the
// backend serves on. Cancelling
// mid-call stops batch fan-out from scheduling further queries and stops
// an expansion inside its pipeline — between phases and every few hundred
// cycles of the enumeration — with nothing cached. Per-request deadlines
// therefore bound every call, which is what cmd/qserve builds its HTTP
// timeouts on.
//
// # Errors
//
// Failures are classified by sentinel, tested with errors.Is:
// ErrBadSnapshot (undecodable snapshot bytes), ErrBadManifest (a sharded
// generation that fails to assemble), ErrBadTopology (a fleet that fails
// to assemble), ErrInvalidOptions (rejected option values),
// ErrInvalidQuery (query-text parse failures), ErrNoBenchmark
// (benchmark-driven calls on a benchmark-less snapshot), ErrDeltaFull and
// ErrReadOnly (rejected writes), ErrShardUnavailable and ErrPartialResult
// (fleet failures) and ErrClosed (requests after Close). Context failures surface as context.Canceled /
// context.DeadlineExceeded; file-system errors pass through unchanged.
// ErrorClass maps any of them onto the stable instrumentation label set.
//
// # Options
//
// Expansion knobs are functional options validated at the call site —
// WithCategoryRatioBand(0.2, 0.5), WithMaxFeatures(10), WithTwoCycles(true)
// and friends; see DefaultExpandOptions for the paper-tuned defaults. An
// explicit value can never be mistaken for "unset", and invalid values
// fail loudly with ErrInvalidOptions instead of falling back silently.
//
// # Command line and HTTP
//
// cmd/qserve serves Search and Expand over HTTP JSON (POST /v1/search,
// POST /v1/expand, batch variants, the ingest/compact/reload admin
// endpoints, GET /v1/healthz, GET /v1/stats, GET /v1/metrics) from any
// artifact OpenBackend opens, with per-request timeouts and graceful
// shutdown; cmd/qshard serves one shard snapshot to a coordinator.
// cmd/qgen generates worlds and snapshots, cmd/qbench
// reproduces every table and figure of the paper next to the reported
// values, and cmd/qgraph inspects one query's ground truth and graph.
//
// # Under the hood
//
// The substrates live under internal/ and are implemented from scratch on
// the standard library: a typed property graph (internal/graph), the
// Wikipedia schema of the paper's Figure 1 (internal/wiki), the synthetic
// world generator (internal/synth), the ImageCLEF document model
// (internal/corpus), a positional inverted index and an INDRI-like engine
// with Dirichlet smoothing (internal/index, internal/search), the
// largest-substring entity linker (internal/linking), the evaluation and
// ground-truth machinery of Section 2 (internal/eval, internal/groundtruth,
// internal/querygraph), cycle mining and its structural metrics
// (internal/cycles), the versioned binary snapshot store (internal/store),
// partitioning and the loaded generation (internal/shard), the delta
// segment (internal/live), the wire protocol (internal/rpc) and the
// assembled pipeline (internal/core). See DESIGN.md for the
// system inventory, hot paths and the per-experiment benchmark index.
package querygraph
