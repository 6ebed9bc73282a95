package querygraph

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/querygraph/querygraph/internal/hist"
)

// numErrorClasses sizes the per-class counter arrays; the fixed-size
// metricClasses array below keeps it coupled to the label list at compile
// time (growing ErrorClass's taxonomy without bumping this fails to
// build, instead of indexing out of range at serve time).
const numErrorClasses = 14

// metricClasses is the closed label set ErrorClass can produce (minus the
// empty success class), so the per-class counters are fixed-size atomics
// instead of a locked map.
var metricClasses = [numErrorClasses]string{
	"timeout", "canceled", "closed", "invalid_query", "invalid_options",
	"bad_manifest", "bad_snapshot", "no_benchmark",
	"bad_topology", "shard_unavailable", "partial_result",
	"read_only", "delta_full", "internal",
}

func classIndex(class string) int {
	for i, c := range metricClasses {
		if c == class {
			return i
		}
	}
	return numErrorClasses - 1 // unknown labels count as internal
}

// opCounters aggregates one operation's request counters.
type opCounters struct {
	total     atomic.Uint64
	durNanos  atomic.Int64
	errors    [numErrorClasses]atomic.Uint64 // indexed by metricClasses
	errsTotal atomic.Uint64
}

func (c *opCounters) observe(e Event) {
	c.total.Add(1)
	c.durNanos.Add(int64(e.Duration))
	if e.Err != "" {
		c.errors[classIndex(e.Err)].Add(1)
		c.errsTotal.Add(1)
	}
}

// MetricsObserver is the built-in Observer: lock-free counters over every
// Event, rendered in Prometheus text exposition format by WritePrometheus
// (cmd/qserve serves it at GET /v1/metrics). One instance may be attached
// to several backends; the counters then aggregate across them. The zero
// value is ready to use.
type MetricsObserver struct {
	// ops[Op] counts every operation; rpc breaks ops[OpRPC], the shard RPC
	// attempts, down by protocol op, which is how the exposition shows them.
	ops [numOps]opCounters
	rpc [numRPCOps]opCounters

	// cache[CacheOutcome] counts successful single-query expansions by
	// how the expansion cache served them. Failed requests are excluded:
	// a fast failure (dead context, closed backend, invalid options)
	// never reaches the cache but carries the CacheBypass zero value,
	// which would otherwise masquerade as "caching disabled".
	cache [CacheMiss + 1]atomic.Uint64

	// batchItems sums the batches' Size, so items/batch ratios fall out of
	// two counters. generation gauges the most recently reported serving
	// generation (0 until the first reload or compaction).
	batchItems atomic.Uint64
	generation atomic.Uint64

	// ingestedDocs counts documents accepted by successful Ingest calls;
	// deltaDocs gauges the delta segment's current document count (set by
	// every ingest, reset to 0 by a successful compaction); compactedDocs
	// counts documents folded into new generations.
	ingestedDocs  atomic.Uint64
	deltaDocs     atomic.Uint64
	compactedDocs atomic.Uint64

	// Retries, hedges and deadline hits are the fleet-health counters of
	// the distributed serving path; partials counts requests answered
	// degraded (class "partial_result" on a search or batch).
	rpcRetries   atomic.Uint64
	rpcHedges    atomic.Uint64
	rpcDeadlines atomic.Uint64
	partials     atomic.Uint64

	// Latency histograms for the hot paths. The summary families give
	// sums and counts; these give the full distribution as Prometheus
	// cumulative buckets, backed by internal/hist's log-linear layout so
	// recording stays a couple of atomic adds. rpcHist pools all protocol
	// ops into one family: per-op attempt counts already exist, and the
	// attempt-latency distribution is dominated by plan/topk fan-out.
	searchHist, expandHist, rpcHist, compactHist hist.Atomic
}

// numRPCOps sizes the per-op RPC counter array; rpcOpNames keeps it
// coupled to the label list at compile time like metricClasses.
const numRPCOps = 8

// rpcOpNames is the closed op label set of the shard protocol
// (internal/rpc), in wire order.
var rpcOpNames = [numRPCOps]string{
	"healthz", "plan", "topk", "expand", "stats", "queries", "link", "title",
}

func rpcOpIndex(op string) int {
	for i, o := range rpcOpNames {
		if o == op {
			return i
		}
	}
	return 0 // unknown ops count as healthz (cannot happen for in-tree callers)
}

// NewMetricsObserver returns a fresh, zeroed metrics observer.
func NewMetricsObserver() *MetricsObserver { return &MetricsObserver{} }

var _ Observer = (*MetricsObserver)(nil)

// Observe implements Observer: atomic adds only, so it is safe and cheap
// on every request path. An Op outside the declared set is dropped.
func (m *MetricsObserver) Observe(e Event) {
	if e.Op >= numOps {
		return
	}
	m.ops[e.Op].observe(e)
	switch ok := e.Err == ""; e.Op {
	case OpSearch:
		m.searchHist.Record(e.Duration)
		m.countPartial(e)
	case OpExpand:
		m.expandHist.Record(e.Duration)
		// The outcome of a Remote's expansion is a byte a shard sent: one
		// past the last outcome this build knows is dropped, not indexed.
		if ok && e.Cache <= CacheMiss {
			m.cache[e.Cache].Add(1)
		}
	case OpBatch:
		m.batchItems.Add(uint64(e.Size))
		m.countPartial(e)
	case OpReload:
		m.generation.Store(e.Generation)
	case OpIngest:
		if ok {
			m.ingestedDocs.Add(uint64(e.Size))
		}
		m.deltaDocs.Store(uint64(e.DeltaDocs))
	case OpCompact:
		// A successful compaction empties the delta segment and advances
		// the serving generation, so both gauges follow it.
		m.compactHist.Record(e.Duration)
		if ok {
			m.compactedDocs.Add(uint64(e.Size))
			m.deltaDocs.Store(0)
			m.generation.Store(e.Generation)
		}
	case OpRPC:
		m.rpc[rpcOpIndex(e.Kind)].observe(e)
		m.rpcHist.Record(e.Duration)
		if e.Attempt > 0 {
			m.rpcRetries.Add(1)
		}
		if e.Hedged {
			m.rpcHedges.Add(1)
		}
		if e.DeadlineHit {
			m.rpcDeadlines.Add(1)
		}
	}
}

func (m *MetricsObserver) countPartial(e Event) {
	if e.Err == "partial_result" {
		m.partials.Add(1)
	}
}

// MetricsSnapshot is a consistent-enough copy of the observer's counters
// for programmatic assertions (each counter is read atomically; the set is
// not a single atomic snapshot).
type MetricsSnapshot struct {
	Searches, SearchErrors uint64
	Expands, ExpandErrors  uint64
	Batches, BatchErrors   uint64
	Reloads, ReloadErrors  uint64
	BatchItems             uint64
	// Cache counts successful expansions by cache outcome, indexed by
	// CacheOutcome (failed requests are excluded — see MetricsObserver).
	Cache [CacheMiss + 1]uint64
	// Generation is the most recently observed reload generation.
	Generation uint64
	// RPC counters of the remote coordinator's fan-out path.
	RPCs, RPCErrors                     uint64
	RPCRetries, RPCHedges, RPCDeadlines uint64
	PartialResults                      uint64
	// Live-index counters: Ingest/Compact calls, documents accepted by
	// successful ingests, the delta segment's current document count, and
	// documents folded into new generations by successful compactions.
	Ingests, IngestErrors   uint64
	Compacts, CompactErrors uint64
	IngestedDocs            uint64
	DeltaDocs               uint64
	CompactedDocs           uint64
}

// Snapshot reads the current counter values.
func (m *MetricsObserver) Snapshot() MetricsSnapshot {
	of := func(op Op) (total, errs uint64) { return m.ops[op].total.Load(), m.ops[op].errsTotal.Load() }
	s := MetricsSnapshot{
		BatchItems:     m.batchItems.Load(),
		Generation:     m.generation.Load(),
		RPCRetries:     m.rpcRetries.Load(),
		RPCHedges:      m.rpcHedges.Load(),
		RPCDeadlines:   m.rpcDeadlines.Load(),
		PartialResults: m.partials.Load(),
		IngestedDocs:   m.ingestedDocs.Load(),
		DeltaDocs:      m.deltaDocs.Load(),
		CompactedDocs:  m.compactedDocs.Load(),
	}
	s.Searches, s.SearchErrors = of(OpSearch)
	s.Expands, s.ExpandErrors = of(OpExpand)
	s.Batches, s.BatchErrors = of(OpBatch)
	s.Reloads, s.ReloadErrors = of(OpReload)
	s.Ingests, s.IngestErrors = of(OpIngest)
	s.Compacts, s.CompactErrors = of(OpCompact)
	s.RPCs, s.RPCErrors = of(OpRPC)
	for i := range s.Cache {
		s.Cache[i] = m.cache[i].Load()
	}
	return s
}

// promWriter renders exposition lines through a sticky error: after the
// first failed write every later line is a no-op, so the family code
// below never checks, and WritePrometheus returns the one error.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *promWriter) family(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// opFamilies renders the three families one set of per-op counters
// exposes — a total counter, an errors counter by class and a duration
// summary — under the names given. sparse skips ops never seen: the RPC
// families list only the protocol ops this coordinator used.
func (p *promWriter) opFamilies(total, errs, dur string, help [3]string, labels []string, cs []opCounters, sparse bool) {
	seen := func(i int) bool { return !sparse || cs[i].total.Load() > 0 }
	p.family(total, "counter", help[0])
	for i, op := range labels {
		if seen(i) {
			p.printf("%s{op=%q} %d\n", total, op, cs[i].total.Load())
		}
	}
	p.family(errs, "counter", help[1])
	for i, op := range labels {
		for j, class := range metricClasses {
			if n := cs[i].errors[j].Load(); n > 0 {
				p.printf("%s{op=%q,class=%q} %d\n", errs, op, class, n)
			}
		}
	}
	p.family(dur, "summary", help[2])
	for i, op := range labels {
		if seen(i) {
			p.printf("%s_sum{op=%q} %g\n", dur, op, float64(cs[i].durNanos.Load())/1e9)
			p.printf("%s_count{op=%q} %d\n", dur, op, cs[i].total.Load())
		}
	}
}

// histogram renders one snapshot as a Prometheus histogram family:
// cumulative _bucket series at the DefaultExposition boundaries (each le
// is an exact internal bucket upper, so cumulative counts are exact whole-
// bucket sums, never interpolated), a +Inf bucket, _sum in seconds and
// _count.
func (p *promWriter) histogram(name, help string, h hist.Hist) {
	p.family(name, "histogram", help)
	var cum uint64
	next := 0
	for _, idx := range hist.DefaultExposition {
		for ; next <= idx; next++ {
			cum += h.Counts[next]
		}
		p.printf("%s_bucket{le=\"%g\"} %d\n", name, float64(hist.BucketUpper(idx))/1e9, cum)
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, h.N)
	p.printf("%s_sum %g\n%s_count %d\n", name, float64(h.Sum)/1e9, name, h.N)
}

// scalar is one unlabelled counter or gauge family of the exposition.
type scalar struct {
	name, typ, help string
	v               *atomic.Uint64
}

// WritePrometheus renders the counters in the Prometheus text exposition
// format (version 0.0.4): querygraph_requests_total and
// querygraph_request_errors_total by {op, class},
// querygraph_request_duration_seconds_{sum,count} by {op},
// querygraph_expand_cache_total by {outcome}, querygraph_batch_items_total,
// the same three per-op families for shard RPC attempts (querygraph_rpc_*),
// full latency histograms (querygraph_search_duration_seconds,
// querygraph_expand_duration_seconds,
// querygraph_rpc_attempt_duration_seconds,
// querygraph_compact_duration_seconds), the fleet-health counters, the
// live-index write-path counters (querygraph_ingest_total,
// querygraph_ingested_documents_total, querygraph_compactions_total,
// querygraph_compacted_documents_total, the querygraph_delta_documents
// gauge) and the querygraph_pool_generation gauge. A new family is one
// row in the tables below.
func (m *MetricsObserver) WritePrometheus(w io.Writer) error {
	p := &promWriter{w: w}
	p.opFamilies("querygraph_requests_total", "querygraph_request_errors_total", "querygraph_request_duration_seconds",
		[3]string{"Requests observed, by operation.", "Failed requests, by operation and error class.", "Wall time inside the backend, by operation."},
		opNames[:OpRPC], m.ops[:OpRPC], false)
	p.family("querygraph_expand_cache_total", "counter", "Successful single-query expansions, by cache outcome.")
	for outcome := CacheBypass; outcome <= CacheMiss; outcome++ {
		p.printf("querygraph_expand_cache_total{outcome=%q} %d\n", outcome.String(), m.cache[outcome].Load())
	}
	scalars := func(rows ...scalar) {
		for _, s := range rows {
			p.family(s.name, s.typ, s.help)
			p.printf("%s %d\n", s.name, s.v.Load())
		}
	}
	scalars(scalar{"querygraph_batch_items_total", "counter", "Items submitted across all batches.", &m.batchItems})
	p.opFamilies("querygraph_rpc_total", "querygraph_rpc_errors_total", "querygraph_rpc_duration_seconds",
		[3]string{"Shard RPC attempts from the remote coordinator, by protocol op.", "Failed shard RPC attempts, by protocol op and error class.", "Wall time of shard RPC attempts, by protocol op."},
		rpcOpNames[:], m.rpc[:], true)
	p.histogram("querygraph_search_duration_seconds", "Search latency distribution.", m.searchHist.Snapshot())
	p.histogram("querygraph_expand_duration_seconds", "Single-query expansion latency distribution.", m.expandHist.Snapshot())
	p.histogram("querygraph_rpc_attempt_duration_seconds", "Shard RPC attempt latency distribution, all protocol ops.", m.rpcHist.Snapshot())
	p.histogram("querygraph_compact_duration_seconds", "Compaction latency distribution.", m.compactHist.Snapshot())
	scalars(
		scalar{"querygraph_rpc_retries_total", "counter", "Shard RPC retry attempts (attempt > 0).", &m.rpcRetries},
		scalar{"querygraph_rpc_hedges_total", "counter", "Speculative hedged shard RPCs to replicas.", &m.rpcHedges},
		scalar{"querygraph_rpc_deadline_hits_total", "counter", "Shard RPC attempts that died on their per-shard deadline.", &m.rpcDeadlines},
		scalar{"querygraph_partial_results_total", "counter", "Requests answered degraded under the partial-failure policy.", &m.partials},
		scalar{"querygraph_ingest_total", "counter", "Ingest calls observed.", &m.ops[OpIngest].total},
		scalar{"querygraph_ingested_documents_total", "counter", "Documents accepted by successful ingests.", &m.ingestedDocs},
		scalar{"querygraph_delta_documents", "gauge", "Documents currently held in the in-memory delta segment.", &m.deltaDocs},
		scalar{"querygraph_compactions_total", "counter", "Compactions observed.", &m.ops[OpCompact].total},
		scalar{"querygraph_compacted_documents_total", "counter", "Delta documents folded into new generations by successful compactions.", &m.compactedDocs},
		scalar{"querygraph_pool_generation", "gauge", "Most recently observed reload generation (0 before any reload).", &m.generation},
	)
	return p.err
}
