// Package server is the serving layer of the reproduction: an HTTP query
// service over frozen dictionary snapshots. It is the deployment shape the
// paper's Bank of Italy stack implies — analysts querying the company KG
// concurrently — mapped onto the repo's two-phase storage discipline:
//
//   - a dictionary is loaded and frozen once into an immutable pg.Frozen
//     snapshot (plus its MetaLog catalog and extracted fact database), and
//     every request reads that snapshot lock-free through one atomic
//     pointer;
//   - /reload builds the next snapshot entirely off-line — load, freeze,
//     extract — and then swaps the pointer. Old readers drain on the old
//     snapshot; the generation counter is monotonic, and a failed reload
//     (including injected faults and contained panics) leaves the serving
//     snapshot untouched;
//   - compute endpoints (/query, /stats, /validate) pass admission control
//     first: a bounded worker pool that sheds load with a typed 429 instead
//     of queueing, keeping tail latency bounded under overload;
//   - query results are cached in an LRU keyed by (snapshot generation,
//     canonical query text, limit) — a swap invalidates implicitly because
//     stale generations stop being asked for;
//   - per-request context deadlines ride the PR 2 cancellation path into
//     the engine (vadalog.RunCtx), fault sites bracket the load, swap and
//     handler boundaries for chaos testing, and obs supplies expvar
//     counters and per-endpoint latency traces.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/graphstats"
	"repro/internal/gsl"
	"repro/internal/metalog"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/plan"
	"repro/internal/snapfile"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
	"repro/internal/wal"
)

// Fault-injection sites of the serving layer (see internal/fault): the
// dictionary load, the freeze-and-swap boundary of /reload, and the request
// dispatch path every endpoint crosses.
var (
	siteLoad    = fault.Site("server/load")
	siteSwap    = fault.Site("server/freeze-swap")
	siteHandler = fault.Site("server/handler")
)

const (
	defaultMaxBody = int64(1 << 20)
	defaultTimeout = 30 * time.Second
)

// Config parameterizes a Server.
type Config struct {
	// Source is the property-graph JSON file served; /reload with an empty
	// path re-reads it. Optional when the server is built with
	// NewFromGraph, in which case /reload requires an explicit path.
	Source string

	// Schema enables /validate and enriches /schema; nil disables both
	// behaviors (validate answers with a typed no_schema error).
	Schema *supermodel.Schema
	// Strategy is the SSST PG translation strategy used by /validate when
	// the request does not override it. Defaults to "multi-label".
	Strategy string

	// MaxInflight bounds the number of concurrently executing compute
	// requests (/query, /stats, /validate); excess requests are shed with a
	// typed 429. Defaults to 8.
	MaxInflight int
	// EngineWorkers is the vadalog.Options.Workers value for each admitted
	// query — per-query engine parallelism, multiplied by MaxInflight for
	// the process budget. Defaults to 1 (concurrency comes from requests).
	EngineWorkers int
	// MaxFacts is the per-query derivation valve (vadalog.Options.MaxFacts);
	// 0 means unlimited.
	MaxFacts int
	// Timeout is the per-request evaluation deadline, wired into the
	// engine's cancellation path. 0 selects the 30s default; negative
	// disables the deadline.
	Timeout time.Duration

	// CacheSize is the query-result LRU capacity in entries; 0 disables
	// caching.
	CacheSize int
	// MaxBody caps request body bytes (defaults to 1 MiB).
	MaxBody int64

	// PlannerOff disables the cost-based query planner: /query evaluates
	// written-order programs, /explain answers with planner "off", and no
	// statistics catalog is computed at snapshot build.
	PlannerOff bool
	// PlanCacheSize is the compiled-plan LRU capacity in entries, keyed by
	// (generation, canonical pattern). 0 selects the 128 default; negative
	// disables plan caching (plans are still computed, per request).
	PlanCacheSize int

	// CompactEvery starts a background compactor that folds the live write
	// overlay into a fresh frozen generation at this interval; 0 disables
	// it (compaction stays available through POST /compact).
	CompactEvery time.Duration
	// CompactDir, when set, persists every compacted generation as a binary
	// snapshot file (snapfile format) in this directory.
	CompactDir string

	// WALDir, when set, makes the write path durable: every applied /mutate
	// batch is appended to a write-ahead log in this directory before it is
	// acknowledged, and startup replays the log over the base snapshot (see
	// wal.go). Empty disables the WAL — mutations live only in memory.
	WALDir string
	// WALSync selects the log's fsync policy: "always" (default; fsync
	// before every acknowledgment), "interval[:duration]" (background
	// fsyncs) or "off".
	WALSync string
	// WALAsyncRecovery makes New return before the WAL replay finishes; the
	// server answers every endpoint with a typed 503 "recovering" until the
	// replayed state is installed. Off, New blocks until recovery completes.
	WALAsyncRecovery bool

	// Retry is the load-retry policy applied to dictionary reads.
	Retry fault.RetryPolicy
	// OnFault is the engine failure policy for query evaluation.
	OnFault vadalog.FaultPolicy

	// Debug mounts /debug/vars (expvar), /debug/pprof and /debug/latency.
	Debug bool
}

func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = "multi-label"
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = 1
	}
	if c.Timeout == 0 {
		c.Timeout = defaultTimeout
	} else if c.Timeout < 0 {
		c.Timeout = 0
	}
	if c.MaxBody <= 0 {
		c.MaxBody = defaultMaxBody
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 128
	} else if c.PlanCacheSize < 0 {
		c.PlanCacheSize = 0
	}
	return c
}

// snapshot is one immutable serving generation: the frozen graph, its
// catalog, and the extracted fact database every query starts from. Stats
// are computed lazily, once per generation.
type snapshot struct {
	gen    uint64
	frozen *pg.Frozen
	// view is what every read endpoint consumes: the frozen base itself
	// when no writes are pending, or the live overlay layered over it once
	// POST /mutate has applied batches. Readers never observe a generation
	// gap — the pointer swap installs view, catalog and fact database as
	// one unit.
	view pg.View
	// ov is the mutable delta this generation serves through view; nil for
	// purely frozen generations. It is never mutated in place: Mutate
	// clones it, applies the batch to the clone, and swaps.
	ov  *overlay.Overlay
	cat *metalog.Catalog
	// db is the generation's extracted fact base, frozen: every query
	// derives into its own copy-on-write layer over it (see queryOpts), and
	// the join indexes queries build on it persist for the generation.
	db *vadalog.Database

	// pstats is the planner's statistics catalog, computed once per frozen
	// generation (nil with the planner off). Mutated generations carry the
	// base's stats forward unchanged — estimates drift with the overlay but
	// correctness never depends on them, and the next compaction or reload
	// recomputes from scratch.
	pstats *plan.Stats

	// build is the provenance header of the snapshot file this generation
	// was opened from; nil for JSON loads and in-memory graphs. Surfaced by
	// /stats so an operator can tell which build a replica serves.
	build *snapfile.BuildInfo
	// file keeps an mmap-backed snapshot alive for the generation's whole
	// lifetime (the frozen view's columns alias the mapping). It is never
	// closed on swap: old readers may still drain, and the retired pages
	// are reclaimable by the OS anyway.
	file *snapfile.Snapshot

	statsOnce sync.Once
	stats     graphstats.Stats
	statsJSON []byte
}

// Server serves MetaLog queries, graph statistics and schema validation
// over a shared frozen snapshot. Create one with New or NewFromGraph.
type Server struct {
	cfg   Config
	snap  atomic.Pointer[snapshot]
	pool  *pool
	cache *resultCache
	plans *planCache
	lat   *obs.LatencyTracker
	mux   *http.ServeMux
	http  *http.Server

	// reloadMu serializes snapshot builds — reloads, mutation batches and
	// compactions — so generations are assigned in swap order; readers
	// never take it.
	reloadMu sync.Mutex

	// Background compactor lifecycle (see startAutoCompact / Shutdown).
	compactStop chan struct{}
	compactOnce sync.Once
	compactWG   sync.WaitGroup

	// Durability (see wal.go): the open log, the recovery carried from Open
	// to replayWAL, and the readiness gate for async recovery.
	wal         *wal.Log
	walRec      *wal.Recovery
	recovering  atomic.Bool
	recoverFail atomic.Pointer[string]
	recoverWG   sync.WaitGroup
}

// New builds a server from cfg, loading and freezing cfg.Source. With a WAL
// configured, the base is the last checkpoint's snapshot (falling back to
// cfg.Source) and the log's acknowledged batches are replayed on top.
func New(cfg Config) (*Server, error) {
	if cfg.Source == "" {
		return nil, fmt.Errorf("server: Config.Source required (or use NewFromGraph)")
	}
	s := newServer(cfg)
	if s.cfg.WALDir != "" {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	first, err := s.buildFromPath(s.walBase())
	if err != nil {
		s.closeWALOnFailure()
		return nil, err
	}
	first.gen = 1
	s.snap.Store(first)
	if err := s.startRecovery(); err != nil {
		return nil, err
	}
	s.startAutoCompact()
	return s, nil
}

// NewFromGraph builds a server from an in-memory graph — the entry point
// for tests and benchmarks. The graph is frozen immediately and not
// retained; later mutations of g are invisible to the server. A configured
// WAL replays over the graph, unless a checkpoint names an on-disk base.
func NewFromGraph(cfg Config, g *pg.Graph) (*Server, error) {
	s := newServer(cfg)
	if s.cfg.WALDir != "" {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	var first *snapshot
	var err error
	if s.walRec != nil && s.walRec.Checkpoint != nil && s.walRec.Checkpoint.Base != "" {
		first, err = s.buildFromPath(s.walRec.Checkpoint.Base)
	} else {
		first, err = s.buildSnapshot(g)
	}
	if err != nil {
		s.closeWALOnFailure()
		return nil, err
	}
	first.gen = 1
	s.snap.Store(first)
	if err := s.startRecovery(); err != nil {
		return nil, err
	}
	s.startAutoCompact()
	return s, nil
}

// startRecovery runs the WAL replay — inline, or in the background with
// WALAsyncRecovery, in which case the recovering gate answers 503 until the
// replay lands.
func (s *Server) startRecovery() error {
	if s.wal == nil {
		return nil
	}
	if s.cfg.WALAsyncRecovery {
		s.recovering.Store(true)
		s.recoverWG.Add(1)
		go s.finishRecovery()
		return nil
	}
	if err := s.replayWAL(); err != nil {
		s.closeWALOnFailure()
		return err
	}
	return nil
}

// closeWALOnFailure tears the log down on a failed construction, so its
// background syncer never outlives the half-built server.
func (s *Server) closeWALOnFailure() {
	if s.wal != nil {
		s.wal.Close() //nolint:errcheck // already failing
		s.wal = nil
	}
}

func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		pool:  newPool(cfg.MaxInflight),
		cache: newResultCache(cfg.CacheSize),
		plans: newPlanCache(cfg.PlanCacheSize),
		lat:   obs.NewLatencyTracker(),
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("/healthz", s.endpoint("healthz", http.MethodGet, false, s.handleHealthz))
	s.mux.Handle("/query", s.endpoint("query", http.MethodPost, true, s.handleQuery))
	s.mux.Handle("/explain", s.endpoint("explain", http.MethodPost, true, s.handleExplain))
	s.mux.Handle("/stats", s.endpoint("stats", http.MethodGet, true, s.handleStats))
	s.mux.Handle("/validate", s.endpoint("validate", http.MethodPost, true, s.handleValidate))
	s.mux.Handle("/schema", s.endpoint("schema", http.MethodGet, false, s.handleSchema))
	s.mux.Handle("/reload", s.endpoint("reload", http.MethodPost, false, s.handleReload))
	s.mux.Handle("/mutate", s.endpoint("mutate", http.MethodPost, false, s.handleMutate))
	s.mux.Handle("/compact", s.endpoint("compact", http.MethodPost, false, s.handleCompact))
	if cfg.Debug {
		registerExpvar()
		obs.RegisterExpvar()
		s.mux.Handle("/debug/vars", expvar.Handler())
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		s.mux.HandleFunc("/debug/latency", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			s.lat.WriteJSON(w) //nolint:errcheck // best-effort debug endpoint
		})
	}
	s.http = &http.Server{Handler: s.mux}
	return s
}

// current returns the serving snapshot; never nil after construction.
func (s *Server) current() *snapshot { return s.snap.Load() }

// Generation returns the current snapshot generation. It starts at 1 and
// only ever increases: failed reloads keep the serving snapshot and its
// generation.
func (s *Server) Generation() uint64 { return s.current().gen }

// Latency exposes the per-endpoint latency tracker (for tests and the
// debug endpoint).
func (s *Server) Latency() *obs.LatencyTracker { return s.lat }

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It blocks, returning
// http.ErrServerClosed after a graceful shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown gracefully stops the server: the listener closes immediately,
// the background compactor (if any) is stopped and joined, in-flight
// requests run to completion (bounded by ctx), and the compute pool is
// drained before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopAutoCompact()
	err := s.http.Shutdown(ctx)
	s.pool.drain()
	s.recoverWG.Wait()
	if s.wal != nil {
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// buildFromPath loads a dictionary file (through the retry policy and the
// server/load fault site) and builds its snapshot. The file's first bytes
// route it: a KGSNAP signature takes the binary snapshot fast path (mmap,
// no freeze), anything else is parsed as property-graph JSON.
func (s *Server) buildFromPath(path string) (*snapshot, error) {
	if err := fault.Hit(siteLoad); err != nil {
		return nil, err
	}
	if isSnapshotFile(path) {
		sf, err := snapfile.Open(path)
		if err != nil {
			return nil, fmt.Errorf("server: loading %s: %w", path, err)
		}
		sn, err := s.buildFromFrozen(sf.Frozen, &sf.Info)
		if err != nil {
			sf.Close() //nolint:errcheck // already failing
			return nil, err
		}
		sn.file = sf
		return sn, nil
	}
	g, err := pg.ReadJSONRetry(func() (io.ReadCloser, error) { return os.Open(path) }, s.cfg.Retry)
	if err != nil {
		return nil, fmt.Errorf("server: loading %s: %w", path, err)
	}
	return s.buildSnapshot(g)
}

// isSnapshotFile sniffs the snapfile magic without consuming the file.
func isSnapshotFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [8]byte
	n, _ := f.Read(hdr[:])
	return snapfile.Sniff(hdr[:n])
}

// buildSnapshot freezes a graph and precomputes the query substrate.
func (s *Server) buildSnapshot(g *pg.Graph) (*snapshot, error) {
	return s.buildFromFrozen(g.Freeze(), nil)
}

// buildFromFrozen precomputes the query substrate over an existing frozen
// view: the inferred catalog and the extracted fact database, frozen and
// shared by every query against this generation.
func (s *Server) buildFromFrozen(frozen *pg.Frozen, build *snapfile.BuildInfo) (*snapshot, error) {
	cat := metalog.FromGraph(frozen)
	db, err := metalog.ExtractFacts(frozen, cat)
	if err != nil {
		return nil, fmt.Errorf("server: extracting facts: %w", err)
	}
	sn := &snapshot{frozen: frozen, view: frozen, cat: cat, db: db.Freeze(), build: build}
	if !s.cfg.PlannerOff {
		sn.pstats = metalog.ComputePlanStats(frozen, cat)
	}
	return sn, nil
}

// ReloadInfo describes a completed snapshot swap.
type ReloadInfo struct {
	Generation uint64 `json:"generation"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
}

// Reload builds a fresh snapshot from path (the configured source when
// empty) entirely off-line, then atomically swaps it in. On any failure —
// including injected faults and contained panics — the serving snapshot and
// generation are untouched.
func (s *Server) Reload(path string) (ReloadInfo, error) {
	if path == "" {
		path = s.cfg.Source
	}
	if path == "" {
		return ReloadInfo{}, fmt.Errorf("server: no reload path and no configured source")
	}
	if err := s.notRecovering(); err != nil {
		mReloadErr.Add(1)
		return ReloadInfo{}, err
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	var next *snapshot
	err := fault.Guard("server/reload", func() error {
		var err error
		if next, err = s.buildFromPath(path); err != nil {
			return err
		}
		if err := fault.Hit(siteSwap); err != nil {
			return err
		}
		if s.wal != nil {
			// A reload abandons the logged batches by design: the new source
			// is the state. Checkpoint BEFORE the swap — if the checkpoint
			// cannot land, the reload must fail, or a crash after the swap
			// would replay pre-reload batches over the post-reload source.
			if _, err := s.wal.Checkpoint(path); err != nil {
				mWALCheckpointErr.Add(1)
				return fmt.Errorf("server: checkpointing wal for reload: %w", err)
			}
			mWALCheckpoints.Add(1)
		}
		return nil
	})
	if err != nil {
		mReloadErr.Add(1)
		return ReloadInfo{}, err
	}
	next.gen = s.current().gen + 1
	s.snap.Store(next)
	mReloads.Add(1)
	return ReloadInfo{Generation: next.gen, Nodes: next.frozen.NumNodes(), Edges: next.frozen.NumEdges()}, nil
}

// apiResult is a successful endpoint outcome: marshaled body plus the
// snapshot generation it was computed from and the cache disposition.
type apiResult struct {
	body  []byte
	gen   uint64
	cache string // "", "hit" or "miss"
}

// endpoint wraps a handler with the cross-cutting request path: method
// check, metrics, per-endpoint latency, the server/handler fault site,
// panic containment, optional admission control, and uniform JSON framing.
// The snapshot generation travels in the X-KG-Generation header — never the
// body — so query responses stay bit-identical across a swap of identical
// data.
func (s *Server) endpoint(name, method string, pooled bool, h func(r *http.Request) (*apiResult, *apiError)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		mRequests.Add(1)
		var res *apiResult
		var aerr *apiError
		gerr := fault.Guard("server/handler", func() error {
			if r.Method != method {
				w.Header().Set("Allow", method)
				aerr = errMethod(method)
				return nil
			}
			if s.recovering.Load() {
				// Readiness gate: until the WAL replay lands, every endpoint
				// (healthz included) answers a typed 503.
				aerr = s.errRecovering()
				return nil
			}
			if err := fault.Hit(siteHandler); err != nil {
				aerr = mapEvalError(err)
				return nil
			}
			if pooled {
				if !s.pool.tryAcquire() {
					mRejected.Add(1)
					aerr = errSaturated()
					return nil
				}
				defer s.pool.release()
			}
			res, aerr = h(r)
			return nil
		})
		if gerr != nil {
			// A contained panic anywhere on the request path.
			res, aerr = nil, mapEvalError(gerr)
		}
		if aerr != nil {
			mErrors.Add(1)
			w.Header().Set("X-KG-Generation", strconv.FormatUint(s.Generation(), 10))
			writeAPIError(w, aerr)
		} else {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-KG-Generation", strconv.FormatUint(res.gen, 10))
			if res.cache != "" {
				w.Header().Set("X-KG-Cache", res.cache)
			}
			w.Write(res.body) //nolint:errcheck // client gone
		}
		s.lat.Observe(name, time.Since(start))
	})
}

// ---- endpoint handlers ----

func (s *Server) handleHealthz(*http.Request) (*apiResult, *apiError) {
	sn := s.current()
	body, err := marshalBody(struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
		Nodes      int    `json:"nodes"`
		Edges      int    `json:"edges"`
	}{"ok", sn.gen, sn.view.NumNodes(), sn.view.NumEdges()})
	if err != nil {
		return nil, err
	}
	return &apiResult{body: body, gen: sn.gen}, nil
}

// queryResponse is the /query body: the sorted column set, one object per
// match in the engine's deterministic order (Limit permitting), and the
// returned row count.
type queryResponse struct {
	Columns []string         `json:"columns"`
	Rows    []map[string]any `json:"rows"`
	Count   int              `json:"count"`
	Total   int              `json:"total"`
}

func (s *Server) handleQuery(r *http.Request) (*apiResult, *apiError) {
	body, aerr := readBody(r.Body, s.cfg.MaxBody)
	if aerr != nil {
		return nil, aerr
	}
	req, aerr := decodeQueryRequest(body)
	if aerr != nil {
		return nil, aerr
	}

	sn := s.current()
	key := cacheKey{gen: sn.gen, query: canonicalQuery(req.Query), limit: req.Limit}
	if cached, ok := s.cache.get(key); ok {
		mHits.Add(1)
		return &apiResult{body: cached, gen: sn.gen, cache: "hit"}, nil
	}
	mMisses.Add(1)

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	opts := s.queryOpts()
	var rows []metalog.QueryRow
	var err error
	if s.cfg.PlannerOff {
		// Planner disabled: the pre-planner path, per request, over the
		// same per-query layer as the planned path. The catalog is cloned
		// because translation extends it with the query-result layout.
		rows, err = metalog.QueryDBCtx(ctx, sn.db.Layer(), sn.cat.Clone(), req.Query, opts)
		if errors.Is(err, metalog.ErrStaleDatabase) {
			rows, err = metalog.QueryWithCatalogCtx(ctx, sn.view, sn.cat.Clone(), req.Query, opts)
		}
	} else {
		var prep *metalog.Prepared
		prep, _, err = s.preparedFor(sn, req.Query)
		if err == nil {
			rows, err = s.queryRows(ctx, sn, prep, req.Query, opts)
		}
	}
	if err != nil {
		return nil, mapEvalError(err)
	}

	resp := buildQueryResponse(rows, req.Limit)
	out, aerr := marshalBody(resp)
	if aerr != nil {
		return nil, aerr
	}
	s.cache.put(key, out)
	return &apiResult{body: out, gen: sn.gen, cache: "miss"}, nil
}

// queryOpts are the engine options of one query evaluation. OwnInput is set
// because every run gets a database of its own: a copy-on-write layer over
// the generation's frozen facts (sn.db.Layer(), O(#relations)), or a fresh
// extraction on the stale-pattern fallback. The run derives into the layer;
// the snapshot's facts are never copied or written, and the indexes built
// on them serve every later query of the generation.
func (s *Server) queryOpts() vadalog.Options {
	return vadalog.Options{
		Workers:  s.cfg.EngineWorkers,
		MaxFacts: s.cfg.MaxFacts,
		OnFault:  s.cfg.OnFault,
		OwnInput: true,
	}
}

// queryRows runs a prepared query against a layer over the snapshot's
// shared database, with the stale-pattern fallback of the unplanned path: a
// pattern that mentions labels or properties the shared database has no
// columns for is re-extracted (and evaluated written-order) against a fresh
// catalog clone — slower, but the result is still cached under this
// generation.
func (s *Server) queryRows(ctx context.Context, sn *snapshot, prep *metalog.Prepared, query string, opts vadalog.Options) ([]metalog.QueryRow, error) {
	rows, err := prep.QueryDB(ctx, sn.db.Layer(), opts)
	if errors.Is(err, metalog.ErrStaleDatabase) {
		rows, err = metalog.QueryWithCatalogCtx(ctx, sn.view, sn.cat.Clone(), query, opts)
	}
	return rows, err
}

// buildQueryResponse renders rows deterministically: columns are the sorted
// union of bound variables, cells are native JSON scalars (identifiers and
// Skolems as their canonical strings), and map-key marshaling keeps every
// row's field order sorted.
func buildQueryResponse(rows []metalog.QueryRow, limit int) queryResponse {
	colSet := map[string]bool{}
	for _, r := range rows {
		for k := range r {
			colSet[k] = true
		}
	}
	cols := make([]string, 0, len(colSet))
	for k := range colSet {
		cols = append(cols, k)
	}
	sort.Strings(cols)

	total := len(rows)
	if limit > 0 && total > limit {
		rows = rows[:limit]
	}
	out := make([]map[string]any, len(rows))
	for i, r := range rows {
		m := make(map[string]any, len(r))
		for k, v := range r {
			m[k] = cellJSON(v)
		}
		out[i] = m
	}
	return queryResponse{Columns: cols, Rows: out, Count: len(out), Total: total}
}

func cellJSON(v value.Value) any {
	switch v.K {
	case value.Int:
		return v.I
	case value.Float:
		return v.F
	case value.Bool:
		return v.B
	case value.String:
		return v.S
	default: // ID, Skolem, Null
		return v.String()
	}
}

func (s *Server) handleStats(*http.Request) (*apiResult, *apiError) {
	sn := s.current()
	sn.statsOnce.Do(func() {
		// The expensive graph walk runs once per generation — mutations,
		// compactions and reloads install a fresh snapshot struct, so its
		// sync.Once naturally re-arms. mStatsComputes counts the walks; tests
		// assert N requests cost one.
		mStatsComputes.Add(1)
		sn.stats = graphstats.Compute(sn.view)
		// Snapshot-file generations carry their provenance header; plain
		// JSON generations marshal the bare stats, so existing outputs stay
		// bit-identical.
		var payload any = sn.stats
		if sn.build != nil {
			payload = struct {
				Build *snapfile.BuildInfo `json:"build"`
				graphstats.Stats
			}{sn.build, sn.stats}
		}
		b, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			b = []byte(`{"error":"stats marshal failed"}`)
		}
		sn.statsJSON = append(b, '\n')
	})
	if s.wal == nil && s.cfg.PlannerOff {
		return &apiResult{body: sn.statsJSON, gen: sn.gen}, nil
	}
	// With the planner or a WAL active the response gains live sections — the
	// planner's cache and run counters, the WAL's durability lag and
	// compaction debt — re-marshaled per request around the cached graph
	// stats. Planner-off WAL-less responses above stay bit-identical to
	// previous builds.
	var ws *wal.Stats
	if s.wal != nil {
		w := s.wal.Stats()
		ws = &w
	}
	var ps *plannerSection
	if !s.cfg.PlannerOff {
		ps = s.plannerStats()
	}
	out, aerr := marshalBody(struct {
		Build *snapfile.BuildInfo `json:"build,omitempty"`
		graphstats.Stats
		Planner *plannerSection `json:"planner,omitempty"`
		WAL     *wal.Stats      `json:"wal,omitempty"`
	}{sn.build, sn.stats, ps, ws})
	if aerr != nil {
		return nil, aerr
	}
	return &apiResult{body: out, gen: sn.gen}, nil
}

func (s *Server) handleValidate(r *http.Request) (*apiResult, *apiError) {
	if s.cfg.Schema == nil {
		return nil, &apiError{Status: http.StatusNotFound, Code: "no_schema",
			Message: "server was started without a schema; /validate is unavailable"}
	}
	body, aerr := readBody(r.Body, s.cfg.MaxBody)
	if aerr != nil {
		return nil, aerr
	}
	req, aerr := decodeValidateRequest(body)
	if aerr != nil {
		return nil, aerr
	}
	strategy := req.Strategy
	if strategy == "" {
		strategy = s.cfg.Strategy
	}
	view, err := models.NativeToPG(s.cfg.Schema, strategy)
	if err != nil {
		return nil, errBadRequest("translating schema: %v", err)
	}
	sn := s.current()
	violations := models.ValidateInstance(sn.view, view)
	violations = append(violations, models.ValidateModifiers(sn.view, s.cfg.Schema)...)
	out, aerr := marshalBody(struct {
		Schema     string             `json:"schema"`
		Strategy   string             `json:"strategy"`
		Conforms   bool               `json:"conforms"`
		Count      int                `json:"count"`
		Violations []models.Violation `json:"violations"`
	}{s.cfg.Schema.Name, strategy, len(violations) == 0, len(violations), violations})
	if aerr != nil {
		return nil, aerr
	}
	return &apiResult{body: out, gen: sn.gen}, nil
}

func (s *Server) handleSchema(*http.Request) (*apiResult, *apiError) {
	sn := s.current()
	resp := struct {
		Name       string              `json:"name"`
		GSL        string              `json:"gsl,omitempty"`
		NodeLabels map[string][]string `json:"nodeLabels"`
		EdgeLabels map[string][]string `json:"edgeLabels"`
	}{NodeLabels: sn.cat.NodeProps, EdgeLabels: sn.cat.EdgeProps}
	if s.cfg.Schema != nil {
		resp.Name = s.cfg.Schema.Name
		resp.GSL = gsl.Serialize(s.cfg.Schema)
	}
	body, aerr := marshalBody(resp)
	if aerr != nil {
		return nil, aerr
	}
	return &apiResult{body: body, gen: sn.gen}, nil
}

func (s *Server) handleReload(r *http.Request) (*apiResult, *apiError) {
	body, aerr := readBody(r.Body, s.cfg.MaxBody)
	if aerr != nil {
		return nil, aerr
	}
	req, aerr := decodeReloadRequest(body)
	if aerr != nil {
		return nil, aerr
	}
	info, err := s.Reload(req.Path)
	if err != nil {
		e := mapEvalError(err)
		if e.Code == "eval_failed" {
			e.Code = "load_failed"
		}
		return nil, e
	}
	out, aerr := marshalBody(info)
	if aerr != nil {
		return nil, aerr
	}
	return &apiResult{body: out, gen: info.Generation}, nil
}

func marshalBody(v any) ([]byte, *apiError) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, &apiError{Status: http.StatusInternalServerError, Code: "internal",
			Message: fmt.Sprintf("marshaling response: %v", err)}
	}
	return append(b, '\n'), nil
}
