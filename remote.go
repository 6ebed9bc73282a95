package querygraph

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/lru"
	"github.com/querygraph/querygraph/internal/rpc"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/trace"
)

// Topology describes a fleet of qshard servers: which shard of the
// partition each serves, on which addresses (first is the primary,
// the rest replicas), and the coordinator's fan-out policy. It is the
// JSON schema of the topology file OpenBackend sniffs alongside
// snapshots and manifests.
type Topology struct {
	// Version is the topology schema version (1).
	Version int `json:"version"`
	// Shards lists one entry per shard slot, ids 0..N-1.
	Shards []TopologyShard `json:"shards"`
	// Policy is the partial-failure policy: "fail" (default — any shard
	// down fails the request with ErrShardUnavailable) or "degrade"
	// (serve the surviving shards' merged ranking alongside an error
	// wrapping ErrPartialResult).
	Policy string `json:"policy,omitempty"`
	// MinShards is the degrade policy's quorum: fewer surviving shards
	// than this fails the request even under "degrade" (default 1).
	MinShards int `json:"min_shards,omitempty"`
	// TimeoutMS bounds each shard RPC attempt (default 2000). The
	// caller's ctx deadline still applies when sooner.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Retries is how many additional attempts a failed shard call gets,
	// rotating through the shard's addresses (default 1).
	Retries int `json:"retries,omitempty"`
	// RetryBackoffMS is the pause before each retry (default 10).
	RetryBackoffMS int `json:"retry_backoff_ms,omitempty"`
	// HedgeAfterMS, when > 0 and a shard has replicas, launches a
	// speculative duplicate of a slow first attempt against a replica
	// after this many milliseconds; the first response wins.
	HedgeAfterMS int `json:"hedge_after_ms,omitempty"`
}

// TopologyShard is one shard slot of a topology.
type TopologyShard struct {
	ID int `json:"id"`
	// Addrs are the host:port addresses serving this shard; the first is
	// the primary, later ones replicas used for retry failover and
	// hedged requests.
	Addrs []string `json:"addrs"`
}

// ReadTopology reads and validates a topology file. Every failure —
// unreadable file, malformed JSON, unknown fields, missing or duplicate
// shard slots, a shard with no addresses, an unknown policy — returns an
// error wrapping ErrBadTopology.
func ReadTopology(path string) (Topology, error) {
	var t Topology
	f, err := os.Open(path)
	if err != nil {
		return t, fmt.Errorf("%w: %v", ErrBadTopology, err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return t, fmt.Errorf("%w: %s: %v", ErrBadTopology, path, err)
	}
	if err := t.validate(); err != nil {
		return t, fmt.Errorf("%w: %s: %v", ErrBadTopology, path, err)
	}
	t.applyDefaults()
	return t, nil
}

func (t *Topology) validate() error {
	if t.Version != 1 {
		return fmt.Errorf("unsupported topology version %d (this build speaks 1)", t.Version)
	}
	if len(t.Shards) == 0 {
		return fmt.Errorf("topology names no shards")
	}
	seen := make([]bool, len(t.Shards))
	for _, sh := range t.Shards {
		if sh.ID < 0 || sh.ID >= len(t.Shards) {
			return fmt.Errorf("shard id %d outside 0..%d", sh.ID, len(t.Shards)-1)
		}
		if seen[sh.ID] {
			return fmt.Errorf("shard id %d appears twice", sh.ID)
		}
		seen[sh.ID] = true
		if len(sh.Addrs) == 0 {
			return fmt.Errorf("shard %d has no addresses", sh.ID)
		}
		for _, a := range sh.Addrs {
			if a == "" {
				return fmt.Errorf("shard %d has an empty address", sh.ID)
			}
		}
	}
	switch t.Policy {
	case "", "fail", "degrade":
	default:
		return fmt.Errorf("unknown policy %q (want \"fail\" or \"degrade\")", t.Policy)
	}
	if t.MinShards < 0 || t.MinShards > len(t.Shards) {
		return fmt.Errorf("min_shards %d outside 0..%d", t.MinShards, len(t.Shards))
	}
	if t.TimeoutMS < 0 || t.Retries < 0 || t.RetryBackoffMS < 0 || t.HedgeAfterMS < 0 {
		return fmt.Errorf("timeout_ms, retries, retry_backoff_ms and hedge_after_ms must be non-negative")
	}
	return nil
}

func (t *Topology) applyDefaults() {
	if t.Policy == "" {
		t.Policy = "fail"
	}
	if t.MinShards == 0 {
		t.MinShards = 1
	}
	if t.TimeoutMS == 0 {
		t.TimeoutMS = 2000
	}
	if t.Retries == 0 {
		t.Retries = 1
	}
	if t.RetryBackoffMS == 0 {
		t.RetryBackoffMS = 10
	}
	// Shards may be listed in any order in the file; index by id.
	ordered := make([]TopologyShard, len(t.Shards))
	for _, sh := range t.Shards {
		ordered[sh.ID] = sh
	}
	t.Shards = ordered
}

// Remote is the fan-out coordinator: a Backend served by a fleet of
// qshard servers named in a topology file. Retrieval scatters the
// stateless plan/top-k protocol across every shard over pooled
// persistent connections — per-shard deadlines, retry-with-backoff
// across replica addresses, optional hedged requests — and merges the
// per-shard rankings by (score desc, global doc asc), bit-identical to
// the in-process Pool when the fleet is healthy. A query body scattered
// before waits for one network round, not two: its top-k requests ride
// behind the plan requests under the collection frequencies remembered
// from last time, and count only if the plan replies sum to exactly those
// (see scatter). Expansion, linking and the accessors route to any single
// shard (the graph and benchmark are replicated), with failover.
//
// Partial failure follows the topology's policy: "fail" turns any
// unreachable shard into an error wrapping ErrShardUnavailable;
// "degrade" serves the surviving shards' merged ranking alongside an
// error wrapping ErrPartialResult (results AND error non-nil — the one
// such pairing in the API).
//
// All methods are safe for concurrent use. After Close — which drains
// in-flight fan-outs, then closes every pooled connection — query-path
// methods return ErrClosed. The query path is the one every runtime
// shares (queryPath); what is the coordinator's own is its gate, the
// in-flight count, and the request steps below, which encode a query and
// scatter it.
//
//qlint:serving
//qlint:observed
type Remote struct {
	queryPath

	topo  Topology
	conns *rpc.ConnPool
	cfg   clientConfig

	// ident is shard 0's handshake identity; the global statistics every
	// top-k request carries.
	ident   rpc.Identity
	queries []Query

	// leafCF remembers, per scattered query body, the fleet-wide per-leaf
	// collection frequencies its plan replies summed to — what the next
	// scatter of that body speculates under. A stored slice is never
	// written again.
	leafCF  *lru.Cache[string, []int64]
	scratch sync.Pool // *scatterScratch

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

// OpenTopology reads a topology file, dials and handshakes every shard
// (partition identity and global statistics must agree — the network
// analogue of the manifest cross-validation), and
// assembles the coordinator. An unreachable shard returns an error
// wrapping ErrShardUnavailable; a fleet that disagrees with its topology
// returns one wrapping ErrBadTopology.
func OpenTopology(path string, opts ...Option) (*Remote, error) {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	topo, err := ReadTopology(path)
	if err != nil {
		return nil, err
	}
	c := &Remote{
		topo:   topo,
		cfg:    cfg,
		conns:  rpc.NewConnPool(time.Duration(topo.TimeoutMS) * time.Millisecond),
		leafCF: lru.New[string, []int64](leafCFCapacity),
	}
	c.queryPath = queryPath{enter: c.enter, obs: cfg.obs}
	if err := c.handshake(); err != nil {
		c.conns.CloseAll()
		return nil, err
	}
	return c, nil
}

// handshake validates every shard against the topology and caches shard
// 0's identity and the replicated benchmark.
func (c *Remote) handshake() error {
	n := len(c.topo.Shards)
	idents := make([]rpc.Identity, n)
	for i, sh := range c.topo.Shards {
		payload, err := c.callShard(nil, sh, rpc.OpHealthz, nil, 0, nil)
		if err != nil {
			return err
		}
		r := rpc.NewReader(payload)
		idents[i] = rpc.ReadIdentity(r)
		if err := r.Done(); err != nil {
			return fmt.Errorf("%w: shard %d handshake: %v", ErrBadTopology, sh.ID, err)
		}
	}
	ref := idents[0]
	for i, id := range idents {
		switch {
		case id.ShardID != i:
			return fmt.Errorf("%w: the server at shard slot %d identifies as shard %d", ErrBadTopology, i, id.ShardID)
		case id.ShardCount != n:
			return fmt.Errorf("%w: shard %d belongs to a %d-shard partition, topology has %d", ErrBadTopology, i, id.ShardCount, n)
		case id.GlobalDocs != ref.GlobalDocs || id.GlobalTokens != ref.GlobalTokens:
			return fmt.Errorf("%w: shard %d global statistics (%d docs, %d tokens) disagree with shard 0 (%d, %d); mixed generations?",
				ErrBadTopology, i, id.GlobalDocs, id.GlobalTokens, ref.GlobalDocs, ref.GlobalTokens)
		}
	}
	c.ident = ref
	payload, err := c.anyShard(nil, rpc.OpQueries, nil)
	if err != nil {
		return err
	}
	r := rpc.NewReader(payload)
	qs := rpc.ReadQueries(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: benchmark fetch: %v", ErrBadTopology, err)
	}
	c.queries = make([]Query, len(qs))
	for i, q := range qs {
		c.queries[i] = Query(q)
	}
	return nil
}

// NumShards returns the fleet's shard count (0 once closed).
func (c *Remote) NumShards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0
	}
	return len(c.topo.Shards)
}

// Close retires the coordinator: query-path methods start failing with
// ErrClosed, in-flight fan-outs (including hedges) drain, then every
// pooled connection is closed. Idempotent.
func (c *Remote) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.inflight.Wait()
	c.conns.CloseAll()
	return nil
}

// enter is the coordinator's gate: it fails with ErrClosed after Close,
// and otherwise registers the request with the in-flight drain Close
// waits on until the request's release. The request it lets in is the
// coordinator itself: its steps encode and scatter (see the Backend
// surface below).
func (c *Remote) enter() (request, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.inflight.Add(1)
	return c, nil
}

// release ends a request enter let in.
func (c *Remote) release() { c.inflight.Done() }

// --- the RPC core ------------------------------------------------------

// ctxErr is ctx.Err() tolerating the nil ctx of the paths no caller's
// context reaches: the ctx-less accessors (Link, Title, Stats — the Backend
// contract carries none there), Pool.Reload and the auto-compactor.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// attemptDeadline bounds one RPC attempt: the per-shard topology timeout,
// or the caller's ctx deadline when sooner.
func (c *Remote) attemptDeadline(ctx context.Context) time.Time {
	d := time.Now().Add(time.Duration(c.topo.TimeoutMS) * time.Millisecond)
	if ctx != nil {
		if cd, ok := ctx.Deadline(); ok && cd.Before(d) {
			return cd
		}
	}
	return d
}

// doRPC performs one observed attempt against one address. Every
// attempt — first try, retry, or hedge — lands one span on the request
// trace with its shard, attempt number and dialed address, and carries
// the trace ID to the shard in the request header so server-side
// work is attributable to this request.
func (c *Remote) doRPC(ctx context.Context, shardID int, addr string, op rpc.Op, body []byte, deadline time.Time, attempt int, hedged bool) ([]byte, error) {
	tr, start := trace.FromContext(ctx), time.Now()
	var payload []byte
	conn, err := c.conns.Get(addr)
	if err == nil {
		payload, err = conn.Do(op, body, deadline, uint64(tr.ID()))
		c.conns.Put(conn)
	}
	c.observeRPC(tr, shardID, addr, op, start, attempt, hedged, err)
	return payload, err
}

// observeRPC lands one attempt that began at start — pipelined or not —
// as an OpRPC event and an rpc:<op> span on the request trace.
func (c *Remote) observeRPC(tr *trace.Trace, shardID int, addr string, op rpc.Op, start time.Time, attempt int, hedged bool, err error) {
	c.cfg.obs.emit(&Event{Op: OpRPC, Kind: op.String(), Shard: shardID, Addr: addr, Attempt: attempt, Hedged: hedged}, start, err)
	if tr != nil {
		tr.Add("rpc:"+op.String(), start, shardID, attempt, hedged, ErrorClass(err), addr)
	}
}

// abortErr classifies an attempt failure: a non-nil return is an
// application error the whole request aborts with (bad query, bad
// options, the caller's own dead ctx); nil means "this shard failed" —
// retry, fail over, or apply the partial-failure policy.
func abortErr(ctx context.Context, err error) error {
	var rerr *rpc.RemoteError
	if errors.As(err, &rerr) {
		switch rerr.Class {
		case rpc.ClassInvalidQuery:
			return fmt.Errorf("%w: %s", ErrInvalidQuery, rerr.Msg)
		case rpc.ClassInvalidOptions:
			return fmt.Errorf("%w: %s", ErrInvalidOptions, rerr.Msg)
		}
		// timeout / canceled / closed / internal: the shard (or its
		// deadline) failed this attempt, not the request — unless the
		// caller's own ctx is what expired, checked below.
	}
	if cerr := ctxErr(ctx); cerr != nil {
		return cerr
	}
	return nil
}

// hedges reports whether a shard's first attempt is raced against a
// delayed duplicate to its replica.
func (c *Remote) hedges(sh TopologyShard) bool {
	return c.topo.HedgeAfterMS > 0 && len(sh.Addrs) > 1
}

// callShard performs one logical call against a shard: up to 1+Retries
// attempts rotating through the shard's addresses with backoff, hedging
// the first attempt to a replica when configured. A caller whose own
// first attempt already failed — round writes those itself — continues
// from attempt 1 with that failure as lastErr; everyone else starts at
// (0, nil). Application errors abort immediately; exhausting every
// attempt returns an error wrapping ErrShardUnavailable.
func (c *Remote) callShard(ctx context.Context, sh TopologyShard, op rpc.Op, body []byte, attempt int, lastErr error) ([]byte, error) {
	backoff := time.Duration(c.topo.RetryBackoffMS) * time.Millisecond
	for ; ; attempt++ {
		if lastErr != nil {
			if aerr := abortErr(ctx, lastErr); aerr != nil {
				return nil, aerr
			}
		}
		if attempt > c.topo.Retries {
			return nil, fmt.Errorf("%w: shard %d after %d attempts: %v", ErrShardUnavailable, sh.ID, c.topo.Retries+1, lastErr)
		}
		if attempt > 0 && backoff > 0 {
			// The backoff ends early when ctx does; the ctx-less accessors
			// and the handshake (nil ctx, nil done) wait it out.
			var done <-chan struct{}
			if ctx != nil {
				done = ctx.Done()
			}
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-done:
				t.Stop()
			}
			backoff *= 2
		}
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, cerr
		}
		addr := sh.Addrs[attempt%len(sh.Addrs)]
		deadline := c.attemptDeadline(ctx)
		var payload []byte
		if attempt == 0 && c.hedges(sh) {
			payload, lastErr = c.attemptHedged(ctx, sh.ID, addr, sh.Addrs[1], op, body, deadline)
		} else {
			payload, lastErr = c.doRPC(ctx, sh.ID, addr, op, body, deadline, attempt, false)
		}
		if lastErr == nil {
			return payload, nil
		}
	}
}

// attemptHedged races the primary against a delayed speculative request
// to a replica; the first success wins and the loser is left to finish
// on its own connection (tracked by the in-flight drain, so Close never
// strands it).
func (c *Remote) attemptHedged(ctx context.Context, shardID int, primary, replica string, op rpc.Op, body []byte, deadline time.Time) ([]byte, error) {
	type result struct {
		payload []byte
		err     error
	}
	ch := make(chan result, 2)
	run := func(addr string, hedged bool) {
		defer c.inflight.Done()
		p, e := c.doRPC(ctx, shardID, addr, op, body, deadline, 0, hedged)
		ch <- result{p, e}
	}
	// Add while the calling request still holds its own in-flight count,
	// so the Add can never race a Close that already started Waiting at
	// zero.
	c.inflight.Add(1)
	go run(primary, false)
	pending := 1
	hedge := time.NewTimer(time.Duration(c.topo.HedgeAfterMS) * time.Millisecond)
	defer hedge.Stop()
	var firstErr error
	for {
		select {
		case res := <-ch:
			if res.err == nil {
				return res.payload, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if pending--; pending == 0 {
				return nil, firstErr
			}
		case <-hedge.C:
			c.inflight.Add(1)
			pending++
			go run(replica, true)
		}
	}
}

// anyShard performs one logical call against any single shard — the
// routing for everything answered by the replicated state (expansion,
// linking, stats, benchmark): shard 0 first, failing over through the
// rest. Application errors abort; only when every shard is unavailable
// does the last ErrShardUnavailable surface.
func (c *Remote) anyShard(ctx context.Context, op rpc.Op, body []byte) ([]byte, error) {
	var lastErr error
	for i := range c.topo.Shards {
		payload, err := c.callShard(ctx, c.topo.Shards[i], op, body, 0, nil)
		if err == nil {
			return payload, nil
		}
		if !errors.Is(err, ErrShardUnavailable) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// --- scatter-gather ----------------------------------------------------

// leafCFCapacity bounds the table of remembered collection frequencies,
// in distinct query bodies (the shards' leaf cache holds as many).
const leafCFCapacity = 4096

// shardState tracks one shard through a scatter.
type shardState struct {
	cfs     []int64  // plan reply: the shard's local per-leaf frequencies
	local   []Result // top-k reply
	ok      bool     // the plan reply was searchable
	ranked  bool     // local answers the top-k body in force
	dropped bool     // lost to the degrade policy
	err     error    // what the round in progress ended in
	// A first attempt the calling goroutine wrote this round: its
	// connection, when it was written (zero: none was), and what has
	// failed of it and is not retried yet — between rounds, the
	// speculated top-k's failure, which that shard's second-round call
	// continues from.
	conn  *rpc.Conn
	sent  time.Time
	first error
}

// skips reports whether a round of op has nothing to ask this shard.
func (st *shardState) skips(op rpc.Op) bool {
	return st.dropped || op == rpc.OpTopK && st.ranked
}

// scatterScratch is one scatter's working state, pooled per coordinator.
type scatterScratch struct {
	states  []shardState
	leafCF  []int64
	body    []byte // the top-k request body in force
	merged  [][]Result
	cursors []int
	wg      sync.WaitGroup
}

// take decodes shard i's reply to op into its state.
func (sc *scatterScratch) take(i int, op rpc.Op, payload []byte) error {
	st, r := &sc.states[i], rpc.NewReader(payload)
	if op == rpc.OpPlan {
		st.cfs, st.ok = rpc.ReadPlanReply(r, st.cfs)
	} else if st.local, st.ranked = rpc.ReadTopKReply(r); !st.ranked && r.Err() == nil {
		return fmt.Errorf("shard %d: plan phase was searchable, top-k phase was not", i)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("shard %d %s: %w", i, op, err)
	}
	return nil
}

// scatter runs the two-phase distributed search for one encoded query:
// plan every shard's leaves and local collection frequencies, aggregate
// to global statistics, score every surviving shard under them, and
// merge into dst. The phases are two network rounds for a query body the
// coordinator has not scattered before. For one it has, the top-k
// requests ride behind the plan requests under the remembered
// frequencies, and their replies are the second phase's answer if the
// plan replies of the surviving shards sum to exactly what was sent;
// anything else — a shard dropped or restarted, a wrong entry — is
// refuted and scored again under the true sum, which also repairs the
// entry. ok=false means the query (an expansion) had nothing to search
// for. Shards lost to the degrade policy leave the survivors' ranking AND
// an error wrapping ErrPartialResult; the fail policy never drops (it
// errors).
func (c *Remote) scatter(ctx context.Context, queryBody []byte, k int, dst []Result) (rs []Result, ok bool, err error) {
	n := len(c.topo.Shards)
	sc, _ := c.scratch.Get().(*scatterScratch)
	if sc == nil {
		sc = &scatterScratch{states: make([]shardState, n), cursors: make([]int, n)}
	}
	defer c.scratch.Put(sc)
	for i := range sc.states {
		sc.states[i] = shardState{cfs: sc.states[i].cfs}
	}
	tr := trace.FromContext(ctx)
	key := string(queryBody)
	sent, warm := c.leafCF.Get(key, key)

	planStart := time.Now()
	var speculate []byte
	if warm {
		sc.body = rpc.AppendTopKRequest(sc.body[:0], queryBody, k, c.ident.GlobalTokens, sent)
		speculate = sc.body
	}
	c.round(ctx, sc, rpc.OpPlan, queryBody, speculate)
	dropped, err := c.applyPolicy(sc.states)
	if err != nil {
		tr.Span("plan", planStart, ErrorClass(err))
		return nil, false, err
	}
	tr.Span("plan", planStart, "")

	// Searchable and leaf structure must agree across survivors — they
	// derive it from the same replicated analyzer and graph.
	aggStart := time.Now()
	first := slices.IndexFunc(sc.states, func(st shardState) bool { return !st.dropped })
	if !sc.states[first].ok {
		return nil, false, nil
	}
	leafCF := append(sc.leafCF[:0], sc.states[first].cfs...)
	for i := first + 1; i < n; i++ {
		st := &sc.states[i]
		if st.dropped {
			continue
		}
		if !st.ok || len(st.cfs) != len(leafCF) {
			return nil, false, fmt.Errorf("shard %d planned %d leaves, shard %d planned %d: fleet disagrees on query structure",
				first, len(leafCF), i, len(st.cfs))
		}
		for j, cf := range st.cfs {
			leafCF[j] += cf
		}
	}
	sc.leafCF = leafCF
	detail := ""
	if warm && slices.Equal(leafCF, sent) {
		detail = "speculated"
	} else {
		if warm {
			detail = "refuted"
		}
		if dropped == 0 { // a degraded sum is not the fleet's
			c.leafCF.Put(key, key, slices.Clone(leafCF))
		}
		for i := range sc.states {
			sc.states[i].ranked = false
		}
		sc.body = rpc.AppendTopKRequest(sc.body[:0], queryBody, k, c.ident.GlobalTokens, leafCF)
	}
	tr.Span("aggregate", aggStart, "")

	// The second round asks only the shards that hold no ranking under
	// sc.body: every survivor when cold or refuted, nobody when every
	// speculated reply arrived.
	topkStart := time.Now()
	c.round(ctx, sc, rpc.OpTopK, sc.body, nil)
	dropped, err = c.applyPolicy(sc.states)
	tr.Add("topk", topkStart, -1, 0, false, ErrorClass(err), detail)
	if err != nil {
		return nil, false, err
	}

	mergeStart := time.Now()
	merged := sc.merged[:0]
	for i := range sc.states {
		if !sc.states[i].dropped {
			merged = append(merged, sc.states[i].local)
		}
	}
	sc.merged = merged
	rs = search.MergeRankedScratch(dst, merged, k, sc.cursors)
	tr.Span("merge", mergeStart, "")
	if dropped > 0 {
		err = fmt.Errorf("%w: served by %d of %d shards", ErrPartialResult, n-dropped, n)
	}
	return rs, true, err
}

// round asks every shard the scatter still wants op of: op under body
// and, with speculate set, OpTopK under it right behind on the same
// connection. The calling goroutine writes every shard's first attempt
// before it reads any reply, then reads them in shard order — the shards
// work meanwhile, so the wait is the slowest one's. A shard whose first
// attempt failed continues through callShard's retry loop from attempt
// 1, and a hedged shard goes through callShard from the start, each on a
// goroutine of its own beside the reads. Every shard's outcome is in its
// state when round returns.
func (c *Remote) round(ctx context.Context, sc *scatterScratch, op rpc.Op, body, speculate []byte) {
	cerr, tr := ctxErr(ctx), trace.FromContext(ctx)
	deadline, traceID := c.attemptDeadline(ctx), uint64(tr.ID())
	for i, sh := range c.topo.Shards {
		st := &sc.states[i]
		st.conn, st.sent = nil, time.Time{}
		switch {
		case st.skips(op):
		case cerr != nil:
			st.err = cerr
		case st.first != nil:
			c.later(ctx, sc, i, op, body, 1, st.first)
			st.first = nil
		case c.hedges(sh):
			c.later(ctx, sc, i, op, body, 0, nil)
		default:
			st.sent = time.Now()
			if st.conn, st.first = c.conns.Get(sh.Addrs[0]); st.first == nil {
				st.first = st.conn.Queue(op, body, deadline, traceID)
			}
			if st.first == nil && speculate != nil {
				st.first = st.conn.Queue(rpc.OpTopK, speculate, deadline, traceID)
			}
			if st.first == nil {
				st.first = st.conn.Flush()
			}
		}
	}
	for i := range sc.states {
		st := &sc.states[i]
		if st.sent.IsZero() {
			continue
		}
		written := st.first == nil
		failed := c.reply(tr, sc, i, op, st.first)
		st.first = nil
		if speculate != nil && written && !st.conn.Broken() {
			st.first = c.reply(tr, sc, i, rpc.OpTopK, nil)
		}
		if st.conn != nil {
			c.conns.Put(st.conn)
		}
		if failed != nil {
			c.later(ctx, sc, i, op, body, 1, failed)
		}
	}
	sc.wg.Wait()
}

// reply reads shard i's reply to the first attempt of op that round wrote
// — unless writing it already failed with err — observes the attempt and
// takes the reply into the shard's state. It returns the attempt's
// failure, for a retry to continue from.
func (c *Remote) reply(tr *trace.Trace, sc *scatterScratch, i int, op rpc.Op, err error) error {
	st, sh := &sc.states[i], c.topo.Shards[i]
	var payload []byte
	if err == nil {
		payload, err = st.conn.Receive()
	}
	c.observeRPC(tr, sh.ID, sh.Addrs[0], op, st.sent, 0, false, err)
	if err == nil && st.err == nil {
		st.err = sc.take(i, op, payload)
	}
	return err
}

// later runs shard i's call of op through callShard — from attempt 1 when
// its first attempt failed with lastErr — on a goroutine round waits for.
func (c *Remote) later(ctx context.Context, sc *scatterScratch, i int, op rpc.Op, body []byte, attempt int, lastErr error) {
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		payload, err := c.callShard(ctx, c.topo.Shards[i], op, body, attempt, lastErr)
		if err == nil {
			err = sc.take(i, op, payload)
		}
		if err != nil {
			sc.states[i].err = err
		}
	}()
}

// applyPolicy folds the round's per-shard errors into the partial-failure
// policy: application errors abort (in shard order, deterministically);
// shard failures abort under "fail", or drop the shard under "degrade" as
// long as the surviving quorum holds. It returns the total dropped count.
func (c *Remote) applyPolicy(states []shardState) (dropped int, err error) {
	for i := range states {
		st := &states[i]
		if st.err != nil && (c.topo.Policy != "degrade" || !errors.Is(st.err, ErrShardUnavailable)) {
			return 0, st.err
		}
		if st.err != nil {
			st.dropped, st.err = true, nil
		}
		if st.dropped {
			dropped++
		}
	}
	if len(states)-dropped < c.topo.MinShards {
		return 0, fmt.Errorf("%w: %d of %d shards unavailable, quorum needs %d survivors",
			ErrShardUnavailable, dropped, len(states), c.topo.MinShards)
	}
	return dropped, nil
}

// --- the Backend surface -----------------------------------------------

// shards is the fleet's shard count.
func (c *Remote) shards() int { return len(c.topo.Shards) }

// search encodes query text as the query union's text arm, scatters it
// across the fleet and merges the ranking into dst. The shards parse it,
// so a syntax error comes back from the scatter.
func (c *Remote) search(ctx context.Context, query string, k int, dst []Result) ([]Result, error) {
	rs, _, err := c.scatter(ctx, rpc.AppendTextQuery(nil, query), k, dst)
	return rs, err
}

// searchExpansion sends the expansion's keywords and article list to every
// shard, which rebuilds the expanded title query on its replicated graph
// and scores its slice.
func (c *Remote) searchExpansion(ctx context.Context, exp *Expansion, k int) ([]Result, bool, error) {
	return c.scatter(ctx, rpc.AppendExpansionQuery(nil, exp), k, nil)
}

// readOnly is the work of the write-path stubs. The remote coordinator is
// read-only: the shard servers own their snapshots, so ingest and
// compaction against a fleet go to the shards themselves.
func readOnly(request) error { return ErrReadOnly }

// Ingest implements Backend: every call fails with a typed ErrReadOnly
// (ctx.Err() on a dead context, ErrClosed once closed).
func (c *Remote) Ingest(ctx context.Context, docs []Document) (IngestStats, error) {
	return IngestStats{}, c.read(ctx, &Event{Op: OpIngest, Size: len(docs)}, readOnly)
}

// Compact implements Backend; read-only like Ingest — compaction is a
// per-shard-server operation, not a coordinator one.
func (c *Remote) Compact(ctx context.Context) (CompactStats, error) {
	return CompactStats{}, c.read(ctx, &Event{Op: OpCompact}, readOnly)
}

// expand runs the pipeline on one shard's replicated graph (shard 0,
// failing over through the rest), memoized in that shard's expansion
// cache.
func (c *Remote) expand(ctx context.Context, keywords string, eopts core.ExpanderOptions) (*Expansion, CacheOutcome, error) {
	tr := trace.FromContext(ctx)
	start := time.Now()
	body := rpc.AppendString(nil, keywords)
	body = rpc.AppendExpanderOptions(body, eopts)
	payload, err := c.anyShard(ctx, rpc.OpExpand, body)
	if err != nil {
		if tr != nil {
			tr.Add("expand", start, -1, 0, false, ErrorClass(err), "")
		}
		return nil, CacheBypass, err
	}
	r := rpc.NewReader(payload)
	outcome := CacheOutcome(r.Byte())
	exp := rpc.ReadExpansion(r)
	if err := r.Done(); err != nil {
		return nil, CacheBypass, fmt.Errorf("expand response: %w", err)
	}
	if tr != nil {
		// The serving shard's cache outcome rides in the span detail —
		// the per-request view of the expand-cache lookup.
		tr.Add("expand", start, -1, 0, false, "", outcome.String())
	}
	return exp, outcome, nil
}

// fetch is the ctx-less accessors' call: op on any shard, through the
// gate like a request, its reply ready to decode; ok=false once closed or
// when no shard answers.
func (c *Remote) fetch(op rpc.Op, body []byte) (r *rpc.Reader, ok bool) {
	req, err := c.enter()
	if err != nil {
		return nil, false
	}
	defer req.release()
	payload, err := c.anyShard(nil, op, body)
	return rpc.NewReader(payload), err == nil
}

// Link computes L(q.k) against any shard's replicated graph (nil on
// failure or once closed — the ctx-less accessor contract).
func (c *Remote) Link(keywords string) []Entity {
	r, ok := c.fetch(rpc.OpLink, rpc.AppendString(nil, keywords))
	if !ok {
		return nil
	}
	n := r.Count(2) // a node id and a length prefix at least
	out := make([]Entity, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Entity{ID: NodeID(r.Uvarint()), Title: r.String()})
	}
	if r.Done() != nil {
		return nil
	}
	return out
}

// Title resolves a node id on any shard's replicated graph ("" for an id
// the graph does not have, on failure, or once closed).
func (c *Remote) Title(id NodeID) string {
	r, ok := c.fetch(rpc.OpTitle, rpc.AppendUvarint(nil, uint64(id)))
	if !ok {
		return ""
	}
	title := r.String()
	if r.Done() != nil {
		return ""
	}
	return title
}

// Queries returns the benchmark fetched from the fleet at open time
// (replicated into every shard); nil once closed.
func (c *Remote) Queries() []Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	out := make([]Query, len(c.queries))
	copy(out, c.queries)
	return out
}

// Stats reports the fleet's serving-state summary, fetched from any
// shard (the graph and benchmark are replicated; Documents is the global
// count). Zero once closed or when no shard answers.
func (c *Remote) Stats() Stats {
	r, ok := c.fetch(rpc.OpStats, nil)
	if !ok {
		return Stats{}
	}
	st := rpc.ReadStats(r)
	if r.Done() != nil {
		return Stats{}
	}
	return Stats{
		Articles:         st.Articles,
		Redirects:        st.Redirects,
		Categories:       st.Categories,
		Links:            st.Links,
		Documents:        st.Documents,
		BenchmarkQueries: st.BenchmarkQueries,
		Cache:            st.Cache,
	}
}

// CacheStats reports the expansion-cache counters of the shard currently
// serving expansions (zero once closed or when no shard answers).
func (c *Remote) CacheStats() CacheStats { return c.Stats().Cache }
