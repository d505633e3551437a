package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/fingraph"
	"repro/internal/instance"
	"repro/internal/metalog"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/snapfile"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
	"repro/internal/wal"
)

// The traced run. It walks the whole chain the repository serves — stream
// a graph into a snapshot, open and build a serving generation, answer
// queries, apply mutation batches through the WAL, compact, and run the §6
// pipeline — calling each layer's public functions from here and recording
// a span around every call. The serving steps mirror the server's own
// sequence (buildFromFrozen, handleQuery, Mutate, Compact) call for call,
// so the per-layer figures decompose what the spawned server does.
//
// Every traced run covers every layer, so every per-layer figure exists on
// every workload. The workload sets the size of each stage: its own stages
// run at the size its untraced run measures, the rest run small, as
// controls that the workload predicts will not move.

// chainSizes sizes the stages of the traced chain.
type chainSizes struct {
	ingest  int // companies streamed by the ingest stage
	serve   int // companies of the served snapshot
	queries int // read requests
	batches int // mutation batches; a compaction follows every compactEvery and the last
	mat     int // companies of the §6 instance
}

// controlCompanies sizes the stages a workload does not exercise itself.
const (
	controlServe = 10_000
	controlMat   = 300
)

var chains = map[string]chainSizes{
	"serve-read":  {ingest: serveCompanies, serve: serveCompanies, queries: 24, batches: 4, mat: controlMat},
	"serve-write": {ingest: serveCompanies, serve: serveCompanies, queries: 8, batches: 2 * compactEvery, mat: controlMat},
	"materialize": {ingest: controlServe, serve: controlServe, queries: 8, batches: 4, mat: matCompanies},
	"ingest":      {ingest: ingestCompanies, serve: controlServe, queries: 8, batches: 4, mat: controlMat},
}

// kgserve's defaults, which the replica and the in-process server use.
const (
	serveCacheSize = 1024
	serveMaxFacts  = 1_000_000
	serveTimeout   = 30 * time.Second
)

func serveOpts() vadalog.Options {
	return vadalog.Options{Workers: 1, MaxFacts: serveMaxFacts}
}

// chainRun is what one pass of the chain observed besides its spans.
type chainRun struct {
	reqs    []request
	answers [][]byte

	extractFacts int
	facadeHeapMB float64
	cloneFacts   []float64
	rows         []float64
	estRatio     []float64
	planHits     int
	planMisses   int
	deltaInc     int
	walBytes     int
	walOps       int
	deltaSize    []float64
	derived      int
	rounds       int
	entities     int
	bytesPerEdge float64
	ops          int
	wrong        error
}

func (c *chainRun) check(err error) {
	if err != nil && c.wrong == nil {
		c.wrong = err
	}
}

// generation mirrors one server snapshot: the frozen base, the view reads
// go through, the overlay, the catalog, the fact database and the planner
// statistics, plus the per-generation result and plan caches.
type generation struct {
	frozen  *pg.Frozen
	view    pg.View
	ov      *overlay.Overlay
	cat     *metalog.Catalog
	db      *vadalog.Database
	pstats  *plan.Stats
	file    *snapfile.Snapshot
	results map[string][]byte
	plans   map[string]*metalog.Prepared
}

// fromFrozen mirrors server.buildFromFrozen.
func fromFrozen(tr *Tracer, parent spanRef, frozen *pg.Frozen) (*generation, error) {
	g := &generation{frozen: frozen, view: frozen, results: map[string][]byte{}, plans: map[string]*metalog.Prepared{}}
	tr.do(parent, "metalog.FromGraph", func(spanRef) { g.cat = metalog.FromGraph(frozen) })
	var err error
	tr.do(parent, "metalog.ExtractFacts", func(spanRef) { g.db, err = metalog.ExtractFacts(frozen, g.cat) })
	if err != nil {
		return nil, fmt.Errorf("extracting facts: %w", err)
	}
	tr.do(parent, "metalog.ComputePlanStats", func(spanRef) { g.pstats = metalog.ComputePlanStats(frozen, g.cat) })
	return g, nil
}

// open mirrors server.buildFromPath for a snapshot file, with the pointer
// facade built in its own span (inside the server, the catalog pass builds
// it on first use).
func open(tr *Tracer, cr *chainRun, path string) (*generation, error) {
	root := tr.begin(spanRef{}, "serve.build")
	defer tr.end(root)
	var sf *snapfile.Snapshot
	var err error
	tr.do(root, "snapfile.Open", func(spanRef) { sf, err = snapfile.Open(path) })
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	tr.do(root, "pg.Frozen.facade", func(spanRef) {
		sf.Frozen.Nodes()
		sf.Frozen.Edges()
	})
	if tr != nil {
		runtime.ReadMemStats(&after)
		cr.facadeHeapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	}
	g, err := fromFrozen(tr, root, sf.Frozen)
	if err != nil {
		sf.Close()
		return nil, err
	}
	g.file = sf
	cr.extractFacts = g.db.TotalFacts()
	return g, nil
}

// query mirrors server.handleQuery with the planner on.
func (g *generation) query(ctx context.Context, tr *Tracer, cr *chainRun, q string) ([]byte, error) {
	root := tr.begin(spanRef{}, "serve.query")
	defer tr.end(root)
	if body, ok := g.results[q]; ok {
		return body, nil
	}
	ctx, cancel := context.WithTimeout(ctx, serveTimeout)
	defer cancel()
	prep, ok := g.plans[q]
	if ok {
		cr.planHits++
	} else {
		cr.planMisses++
		var err error
		tr.do(root, "metalog.PrepareQuery", func(spanRef) { prep, err = metalog.PrepareQuery(g.cat.Clone(), q, g.pstats) })
		if err != nil {
			return nil, err
		}
		g.plans[q] = prep
	}
	var db *vadalog.Database
	tr.do(root, "vadalog.Database.Clone", func(spanRef) { db = g.db.Clone() })
	cr.cloneFacts = append(cr.cloneFacts, float64(db.TotalFacts()))
	opts := serveOpts()
	opts.OwnInput = true
	var rows []metalog.QueryRow
	var err error
	tr.do(root, "metalog.Prepared.QueryDB", func(spanRef) { rows, err = prep.QueryDB(ctx, db, opts) })
	if errors.Is(err, metalog.ErrStaleDatabase) {
		tr.do(root, "metalog.QueryWithCatalogCtx", func(spanRef) {
			rows, err = metalog.QueryWithCatalogCtx(ctx, g.view, g.cat.Clone(), q, serveOpts())
		})
	}
	if err != nil {
		return nil, err
	}
	cr.rows = append(cr.rows, float64(len(rows)))
	if len(rows) > 0 && prep.Planned() {
		cr.estRatio = append(cr.estRatio, prep.EstimatedRows()/float64(len(rows)))
	}
	var body []byte
	tr.do(root, "server.marshal", func(spanRef) { body, err = marshalRows(rows) })
	if err != nil {
		return nil, err
	}
	g.results[q] = body
	return body, nil
}

// marshalRows renders rows exactly as the server's /query body: sorted
// column union, native JSON scalars, indented, newline-terminated.
func marshalRows(rows []metalog.QueryRow) ([]byte, error) {
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
	out := make([]map[string]any, len(rows))
	for i, r := range rows {
		m := make(map[string]any, len(r))
		for k, v := range r {
			m[k] = cellJSON(v)
		}
		out[i] = m
	}
	b, err := json.MarshalIndent(struct {
		Columns []string         `json:"columns"`
		Rows    []map[string]any `json:"rows"`
		Count   int              `json:"count"`
		Total   int              `json:"total"`
	}{cols, out, len(out), len(out)}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
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
	default:
		return v.String()
	}
}

// mutate mirrors server.Mutate with a WAL.
func (g *generation) mutate(tr *Tracer, cr *chainRun, log *wal.Log, ops []overlay.Op) (*generation, map[string]pg.OID, error) {
	root := tr.begin(spanRef{}, "serve.mutate")
	defer tr.end(root)
	ov := g.ov
	if ov == nil {
		tr.do(root, "overlay.New", func(spanRef) { ov = overlay.New(g.frozen) })
	} else {
		tr.do(root, "overlay.Overlay.Clone", func(spanRef) { ov = ov.Clone() })
	}
	var diff overlay.Diff
	var err error
	tr.do(root, "overlay.Overlay.Apply", func(spanRef) { diff, err = ov.Apply(ops) })
	if err != nil {
		return nil, nil, fmt.Errorf("applying batch: %w", err)
	}
	var db *vadalog.Database
	var ok bool
	tr.do(root, "metalog.ApplyFactsDelta", func(spanRef) { db, ok = metalog.ApplyFactsDelta(g.db, g.cat, diff) })
	cat := g.cat
	if ok {
		cr.deltaInc++
	} else {
		tr.do(root, "metalog.FromGraph", func(spanRef) { cat = metalog.FromGraph(ov) })
		tr.do(root, "metalog.ExtractFacts", func(spanRef) { db, err = metalog.ExtractFacts(ov, cat) })
		if err != nil {
			return nil, nil, err
		}
	}
	var payload []byte
	tr.do(root, "overlay.EncodeOps", func(spanRef) { payload, err = overlay.EncodeOps(ops) })
	if err != nil {
		return nil, nil, err
	}
	tr.do(root, "wal.Log.Append", func(spanRef) { _, err = log.Append(payload) })
	if err != nil {
		return nil, nil, fmt.Errorf("wal append: %w", err)
	}
	cr.walBytes += len(payload)
	cr.walOps += len(ops)
	cr.deltaSize = append(cr.deltaSize, float64(ov.DeltaSize()))
	next := &generation{frozen: g.frozen, view: ov, ov: ov, cat: cat, db: db, pstats: g.pstats, file: g.file,
		results: map[string][]byte{}, plans: map[string]*metalog.Prepared{}}
	return next, diff.Handles, nil
}

// compact mirrors server.Compact with a compaction directory and a WAL.
func (g *generation) compact(tr *Tracer, log *wal.Log, path string) (*generation, error) {
	root := tr.begin(spanRef{}, "serve.compact")
	defer tr.end(root)
	var frozen *pg.Frozen
	var err error
	tr.do(root, "overlay.Overlay.Compact", func(spanRef) { frozen, err = g.ov.Compact() })
	if err != nil {
		return nil, err
	}
	var next *generation
	tr.do(root, "server.rebuild", func(s spanRef) { next, err = fromFrozen(tr, s, frozen) })
	if err != nil {
		return nil, err
	}
	info := snapfile.BuildInfo{Tool: "kgserve", Source: "compaction", CreatedUnix: time.Now().Unix()}
	tr.do(root, "snapfile.WriteFile", func(spanRef) { _, err = snapfile.WriteFile(path, frozen, info) })
	if err != nil {
		return nil, err
	}
	tr.do(root, "wal.Log.Checkpoint", func(spanRef) { _, err = log.Checkpoint(path) })
	if err != nil {
		return nil, err
	}
	return next, nil
}

// materializeTraced mirrors instance.Materialize phase by phase.
func materializeTraced(tr *Tracer, cr *chainRun, seed int64, companies int) error {
	topo := fingraph.GenerateTopology(matConfig(seed, companies))
	data := topo.CompanyKG()
	root := tr.begin(spanRef{}, "materialize")
	defer tr.end(root)
	var d *instance.Dictionary
	var err error
	tr.do(root, "instance.NewDictionary", func(spanRef) { d, err = instance.NewDictionary(supermodel.CompanyKG()) })
	if err != nil {
		return err
	}
	prog, err := metalog.Parse(sigma)
	if err != nil {
		return err
	}
	cat := instance.CatalogFromSchema(d.Schema)
	var trn *metalog.Translation
	tr.do(root, "metalog.Translate", func(spanRef) { trn, err = metalog.Translate(prog, cat) })
	if err != nil {
		return err
	}
	snap := d.Graph.Begin()
	var loaded *instance.Loaded
	tr.do(root, "instance.Dictionary.LoadPG", func(spanRef) { loaded, err = d.LoadPG(data, 1) })
	if err != nil {
		snap.Rollback()
		return err
	}
	var db *vadalog.Database
	tr.do(root, "instance.Loaded.InputViews", func(spanRef) { db, err = loaded.InputViews(cat) })
	if err != nil {
		snap.Rollback()
		return err
	}
	var run *vadalog.Result
	tr.do(root, "vadalog.RunInPlace", func(spanRef) {
		run, err = vadalog.RunInPlace(trn.Program, db, vadalog.Options{Workers: engineWorkers})
	})
	if err != nil {
		snap.Rollback()
		return err
	}
	var derived *instance.Derived
	tr.do(root, "instance.Loaded.Flush", func(spanRef) { derived, err = loaded.Flush(run.DB, trn, cat) })
	if err != nil {
		snap.Rollback()
		return err
	}
	snap.Commit()
	cr.derived = run.Stats.FactsDerived
	cr.rounds = run.Stats.Rounds
	cr.entities = len(loaded.Entities)
	_, err = checkControl(topo, data, loaded, derived)
	cr.check(err)
	return nil
}

// runChain runs one pass of the chain; tr is nil for the untraced pass.
func runChain(ctx context.Context, e *env, sz chainSizes, tr *Tracer, pass int) (*chainRun, error) {
	cr := &chainRun{}
	dir := filepath.Join(e.dir, fmt.Sprintf("pass%d", pass))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Ingest.
	ingPath := filepath.Join(dir, "ingest.snap")
	ing, err := ingest(fingraph.DefaultConfig(sz.ingest, e.seed), ingPath, false, tr)
	if err != nil {
		return nil, err
	}
	if ing.frozenNodes != ing.nodes || ing.frozenEdges != ing.edges {
		cr.check(fmt.Errorf("ingest: loader froze %d nodes, %d edges; the generator streamed %d, %d",
			ing.frozenNodes, ing.frozenEdges, ing.nodes, ing.edges))
	}
	cr.bytesPerEdge = float64(ing.bytes) / float64(ing.edges)
	os.Remove(ingPath)
	cr.ops++

	// The served snapshot and its topology are inputs, made untraced.
	servePath := filepath.Join(e.dir, "serve.snap")
	inp, err := ingest(fingraph.DefaultConfig(sz.serve, e.seed), servePath, true, nil)
	if err != nil {
		return nil, err
	}
	topo := inp.topo

	g, err := open(tr, cr, servePath)
	if err != nil {
		return nil, err
	}
	cr.ops++
	defer g.file.Close()

	// Reads, on the pristine generation.
	stream := newReadStream(e.seed, queryTargets(topo), true)
	for i := 0; i < sz.queries; i++ {
		req := stream.next()
		body, err := g.query(ctx, tr, cr, req.pattern())
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", req.key(), err)
		}
		cr.check(topo.checkAnswer(req, body))
		cr.reqs = append(cr.reqs, req)
		cr.answers = append(cr.answers, body)
		cr.ops++
	}

	// Writes through the WAL, with compactions.
	log, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	ws := newWriteStream(e.seed, topo)
	for i := 0; i < sz.batches; i++ {
		ops := ws.next()
		next, handles, err := g.mutate(tr, cr, log, ops)
		if err != nil {
			return nil, err
		}
		g = next
		assigned := make(map[string]int64, len(handles))
		for h, id := range handles {
			assigned[h] = int64(id)
		}
		if err := ws.ack(ops, assigned); err != nil {
			return nil, err
		}
		cr.ops++
		if (i+1)%compactEvery == 0 || i == sz.batches-1 {
			if g, err = g.compact(tr, log, filepath.Join(dir, fmt.Sprintf("gen%03d.snap", i+1))); err != nil {
				return nil, err
			}
			cr.ops++
		}
	}
	// The compacted generation answers closure queries like the topology
	// with every batch applied.
	for _, req := range ws.touchedRequests(2) {
		body, err := g.query(ctx, nil, &chainRun{}, req.pattern())
		if err != nil {
			return nil, err
		}
		cr.check(topo.checkAnswer(req, body))
	}

	if err := materializeTraced(tr, cr, e.seed, sz.mat); err != nil {
		return nil, err
	}
	cr.ops++
	return cr, nil
}

// handlerPass sends the chain's reads through an in-process server's
// Handler().ServeHTTP, one span per request, and checks the bytes.
func handlerPass(tr *Tracer, snapPath string, cr *chainRun) (hits int, err error) {
	srv, err := server.New(server.Config{Source: snapPath, CacheSize: serveCacheSize, MaxFacts: serveMaxFacts})
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck // nothing is listening
	h := srv.Handler()
	for i, req := range cr.reqs {
		rec := httptest.NewRecorder()
		tr.do(spanRef{}, "server.handler", func(spanRef) {
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(req.body)))
		})
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process /query %s: status %d", req.key(), rec.Code)
		}
		if rec.Header().Get("X-KG-Cache") == "hit" {
			hits++
		}
		if !bytes.Equal(rec.Body.Bytes(), cr.answers[i]) {
			cr.check(fmt.Errorf("query %s: the in-process handler's bytes differ from the traced sequence's", req.key()))
		}
	}
	return hits, nil
}

// spawnedPass asks a spawned kgserve the chain's reads and checks that its
// answers are byte-identical to the traced sequence's.
func spawnedPass(ctx context.Context, e *env, snapPath string, cr *chainRun) error {
	srv, _, err := startServer(ctx, e.kgserve, []string{"-snapshot", snapPath}, filepath.Join(e.dir, "kgserve-traced.log"))
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newClient(srv.base, requestTimeout)
	for i, req := range cr.reqs {
		r := cl.do(http.MethodPost, "/query", req.body)
		if !r.ok {
			return fmt.Errorf("spawned /query %s: %w", req.key(), r.err)
		}
		if !bytes.Equal(r.body, cr.answers[i]) {
			cr.check(fmt.Errorf("query %s: the spawned server's bytes differ from the traced sequence's", req.key()))
		}
	}
	return nil
}

// spanCost's sample: enough pairs that one timing is milliseconds long.
const (
	spanCostPairs = 100_000
	spanCostReps  = 7
)

// runTraced runs the chain untraced and then traced, replays its reads
// through the in-process handler and a spawned server, and derives the
// per-layer figures from the spans. Between the steps it hands freed heap
// back to the OS, so that this process and the spawned server never both
// hold a full generation's worth of memory.
func runTraced(ctx context.Context, e *env, workload string) (*outcome, error) {
	sz := chains[workload]
	t0 := time.Now()
	if _, err := runChain(ctx, e, sz, nil, 0); err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	debug.FreeOSMemory()

	tr := newTracer()
	t1 := time.Now()
	cr, err := runChain(ctx, e, sz, tr, 1)
	if err != nil {
		return nil, err
	}
	traced := time.Since(t1)
	debug.FreeOSMemory()

	servePath := filepath.Join(e.dir, "serve.snap")
	hits, err := handlerPass(tr, servePath, cr)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	if err := spawnedPass(ctx, e, servePath, cr); err != nil {
		return nil, err
	}

	spans := tr.Spans()
	out := newOutcome(cr.ops, 0, nil)
	out.check(cr.wrong)
	out.spans = spans
	layerMetrics(out.metrics, indexSpans(spans), cr, hits)
	m := out.metrics
	// The tracing overhead is the tracer's cost per span times the spans
	// the run recorded. The wall-time difference of the two passes is
	// recorded too, but it is run-to-run noise of the whole chain, seconds
	// against the tracer's microseconds, and can be negative.
	cost := spanCost(spanCostPairs, spanCostReps)
	m.set("trace.span_ns", float64(cost), "ns", spanCostReps)
	m.set("trace.overhead_ms", durMs(cost*time.Duration(len(spans))), "ms", spanCostReps)
	m.set("trace.wall_diff_ms", durMs(traced-untraced), "ms", 1)
	m.set("trace.untraced_s", untraced.Seconds(), "s", 1)
	m.set("trace.traced_s", traced.Seconds(), "s", 1)
	m.set("trace.spans", float64(len(spans)), "count", 1)
	return out, nil
}

// layerSpan names a per-layer time figure: spans called one of names under
// a root called root, their self time or whole duration, and whether the
// figure is the median per call or the sum over the run.
type layerSpan struct {
	metric string
	root   string
	names  []string
	self   bool
	sum    bool
}

var layerSpans = []layerSpan{
	{"snapfile.open_ms", "serve.build", []string{"snapfile.Open"}, true, true},
	{"pg.facade_ms", "serve.build", []string{"pg.Frozen.facade"}, true, true},
	{"metalog.catalog_ms", "serve.build", []string{"metalog.FromGraph"}, true, true},
	{"metalog.extract_ms", "serve.build", []string{"metalog.ExtractFacts"}, true, true},
	{"plan.stats_ms", "serve.build", []string{"metalog.ComputePlanStats"}, true, true},
	{"metalog.prepare_ms", "serve.query", []string{"metalog.PrepareQuery"}, true, false},
	{"vadalog.clone_ms", "serve.query", []string{"vadalog.Database.Clone"}, true, false},
	{"metalog.querydb_ms", "serve.query", []string{"metalog.Prepared.QueryDB"}, true, false},
	{"server.marshal_ms", "serve.query", []string{"server.marshal"}, true, false},
	{"server.query_handler_ms", "server.handler", []string{"server.handler"}, true, false},
	{"overlay.clone_ms", "serve.mutate", []string{"overlay.New", "overlay.Overlay.Clone"}, true, false},
	{"overlay.apply_ms", "serve.mutate", []string{"overlay.Overlay.Apply"}, true, false},
	{"metalog.apply_delta_ms", "serve.mutate", []string{"metalog.ApplyFactsDelta"}, true, false},
	{"wal.append_ms", "serve.mutate", []string{"wal.Log.Append"}, true, false},
	{"overlay.compact_ms", "serve.compact", []string{"overlay.Overlay.Compact"}, true, false},
	{"server.rebuild_ms", "serve.compact", []string{"server.rebuild"}, false, false},
	{"snapfile.compact_write_ms", "serve.compact", []string{"snapfile.WriteFile"}, true, false},
	{"metalog.translate_ms", "materialize", []string{"metalog.Translate"}, true, true},
	{"instance.load_ms", "materialize", []string{"instance.Dictionary.LoadPG"}, true, true},
	{"instance.views_ms", "materialize", []string{"instance.Loaded.InputViews"}, true, true},
	{"vadalog.fixpoint_ms", "materialize", []string{"vadalog.RunInPlace"}, true, true},
	{"instance.flush_ms", "materialize", []string{"instance.Loaded.Flush"}, true, true},
	{"fingraph.stream_ms", "ingest", []string{"fingraph.StreamTopology"}, true, true},
	{"pg.bulkload_add_ms", "ingest", []string{"pg.BulkLoader.AddNodes", "pg.BulkLoader.AddEdges"}, true, true},
	{"pg.bulkload_finish_ms", "ingest", []string{"pg.BulkLoader.Finish"}, true, true},
	{"snapfile.write_ms", "ingest", []string{"snapfile.WriteFile"}, true, true},
}

func layerMetrics(m metrics, ix *spanIndex, cr *chainRun, hits int) {
	for _, l := range layerSpans {
		var xs []float64
		for _, n := range l.names {
			xs = append(xs, ix.times(l.root, n, l.self)...)
		}
		v := median(xs)
		if l.sum {
			v = 0
			for _, x := range xs {
				v += x
			}
		}
		m.set(l.metric, v, "ms", len(xs))
	}
	m.set("pg.facade_heap_mb", cr.facadeHeapMB, "MB", 1)
	m.set("metalog.extract_facts", float64(cr.extractFacts), "count", 1)
	m.set("vadalog.clone_facts", median(cr.cloneFacts), "count", len(cr.cloneFacts))
	m.set("metalog.rows", median(cr.rows), "count", len(cr.rows))
	m.set("plan.est_rows_ratio", median(cr.estRatio), "ratio", len(cr.estRatio))
	m.set("server.cache_hit_ratio", float64(hits)/float64(max(1, len(cr.reqs))), "ratio", len(cr.reqs))
	m.set("server.plan_cache_hit_ratio", float64(cr.planHits)/float64(max(1, cr.planHits+cr.planMisses)), "ratio", cr.planHits+cr.planMisses)
	m.set("metalog.delta_incremental_ratio", float64(cr.deltaInc)/float64(max(1, len(cr.deltaSize))), "ratio", len(cr.deltaSize))
	m.set("wal.bytes_per_op", float64(cr.walBytes)/float64(max(1, cr.walOps)), "B", cr.walOps)
	m.set("overlay.delta_size", median(cr.deltaSize), "count", len(cr.deltaSize))
	m.set("vadalog.derived_facts", float64(cr.derived), "count", 1)
	m.set("vadalog.rounds", float64(cr.rounds), "count", 1)
	m.set("instance.entities", float64(cr.entities), "count", 1)
	m.set("snapfile.bytes_per_edge", cr.bytesPerEdge, "B", 1)
}
