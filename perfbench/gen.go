package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/fingraph"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/snapfile"
	"repro/internal/value"
)

// loaderWorkers is the bulk-loader parallelism of every generated snapshot:
// the benchmark host has two cores, and the streamed bytes do not depend on
// the worker count.
const loaderWorkers = 2

// stake is one OWNS edge of the generated graph.
type stake struct {
	oid, from, to pg.OID
	pct           float64
}

// topology is the benchmark's own record of a generated shareholding graph:
// what the oracles compare the system's answers against. It is captured
// from the batch stream on its way into the bulk loader, so it is exactly
// the graph the snapshot holds.
type topology struct {
	nodes     int
	companies []pg.OID          // company index → OID
	code      map[pg.OID]string // company OID → fiscal code
	byCode    map[string]pg.OID
	edges     []stake
	out       map[pg.OID][]pg.OID // multiset adjacency, for reachability
	in        map[pg.OID][]stake
}

// recorder is a fingraph.BatchSink that copies the stream into a topology
// and forwards it to the bulk loader. firstBatch is when the first batch
// arrived: everything before it is the generator's counting pass and the
// loader's reservation.
type recorder struct {
	ld         *pg.BulkLoader
	topo       *topology
	start      time.Time
	firstBatch time.Duration
	tr         *Tracer
	parent     spanRef
}

func (r *recorder) Reserve(nodes, nodeProps, edges, edgeProps int) {
	r.ld.Reserve(nodes, nodeProps, edges, edgeProps)
}

func (r *recorder) mark() {
	if r.firstBatch == 0 {
		r.firstBatch = time.Since(r.start)
	}
}

func (r *recorder) AddNodes(b pg.NodeBatch) error {
	r.mark()
	if r.topo != nil {
		r.topo.nodes += len(b.OIDs)
		if len(b.Labels) > 0 && b.Labels[0] == "Business" {
			for i, id := range b.OIDs {
				c := b.Vals[i].S
				r.topo.companies = append(r.topo.companies, id)
				r.topo.code[id] = c
				r.topo.byCode[c] = id
			}
		}
	}
	var err error
	r.tr.do(r.parent, "pg.BulkLoader.AddNodes", func(spanRef) { err = r.ld.AddNodes(b) })
	return err
}

func (r *recorder) AddEdges(b pg.EdgeBatch) error {
	r.mark()
	if r.topo != nil {
		for i, id := range b.OIDs {
			r.topo.addEdge(stake{oid: id, from: b.From[i], to: b.To[i], pct: b.Vals[i].F})
		}
	}
	var err error
	r.tr.do(r.parent, "pg.BulkLoader.AddEdges", func(spanRef) { err = r.ld.AddEdges(b) })
	return err
}

func newTopology() *topology {
	return &topology{
		code:   map[pg.OID]string{},
		byCode: map[string]pg.OID{},
		out:    map[pg.OID][]pg.OID{},
		in:     map[pg.OID][]stake{},
	}
}

func (t *topology) addEdge(s stake) {
	t.edges = append(t.edges, s)
	t.out[s.from] = append(t.out[s.from], s.to)
	t.in[s.to] = append(t.in[s.to], s)
}

// removeEdge drops one from→to occurrence from the reachability adjacency.
func (t *topology) removeEdge(from, to pg.OID) {
	adj := t.out[from]
	for i, x := range adj {
		if x == to {
			adj[i] = adj[len(adj)-1]
			t.out[from] = adj[:len(adj)-1]
			return
		}
	}
}

// ingestResult is one pass of the stream → bulk load → snapshot pipeline.
type ingestResult struct {
	topo        *topology // nil unless requested
	stats       fingraph.StreamStats
	firstBatch  time.Duration
	total       time.Duration // stream + finish + write
	bytes       int64
	nodes       int
	edges       int
	frozenNodes int
	frozenEdges int
}

// ingest streams the shareholding graph of cfg through the bulk loader into
// a snapshot file at path — the kggen -stream pipeline, call for call —
// optionally recording its topology. With a tracer, each stage is a span
// under one "ingest" request.
func ingest(cfg fingraph.Config, path string, record bool, tr *Tracer) (*ingestResult, error) {
	res := &ingestResult{}
	rec := &recorder{ld: pg.NewBulkLoader(loaderWorkers), tr: tr, start: time.Now()}
	if record {
		rec.topo = newTopology()
	}
	root := tr.begin(spanRef{}, "ingest")
	defer tr.end(root)
	var err error
	tr.do(root, "fingraph.StreamTopology", func(s spanRef) {
		rec.parent = s
		res.stats, err = fingraph.StreamTopology(cfg, fingraph.StreamOptions{}, rec)
	})
	if err != nil {
		return nil, fmt.Errorf("streaming topology: %w", err)
	}
	var frozen *pg.Frozen
	tr.do(root, "pg.BulkLoader.Finish", func(spanRef) { frozen, err = rec.ld.Finish() })
	if err != nil {
		return nil, fmt.Errorf("finishing bulk load: %w", err)
	}
	info := snapfile.BuildInfo{Tool: "perfbench", Source: "fingraph/stream", CreatedUnix: time.Now().Unix(),
		Params: map[string]string{"companies": strconv.Itoa(cfg.Companies), "seed": strconv.FormatInt(cfg.Seed, 10)}}
	tr.do(root, "snapfile.WriteFile", func(spanRef) { res.bytes, err = snapfile.WriteFile(path, frozen, info) })
	if err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	res.total = time.Since(rec.start)
	res.firstBatch = rec.firstBatch
	res.topo = rec.topo
	res.nodes = res.stats.Persons + res.stats.Companies
	res.edges = res.stats.Edges
	res.frozenNodes, res.frozenEdges = frozen.NumNodes(), frozen.NumEdges()
	return res, nil
}

// ---- the read request stream ----

// Query kinds of the read mix.
const (
	kindClosure  = "closure"
	kindMajority = "majority"
)

// The read mix fixes its shares by position rather than by chance, so that
// a run's cache-hit share and query-kind mix do not vary with the seed:
// every repeatEvery-th request repeats an earlier one (a result-cache hit
// unless the generation moved), chosen Zipf-skewed towards the earliest
// keys; the others ask about a company not asked about before, in a
// seeded random order, and every majorityEvery-th of those is a
// majority-holder lookup.
const (
	repeatEvery   = 5
	majorityEvery = 5
	zipfS         = 1.1
)

type request struct {
	kind string
	code string
	body []byte
}

func (r request) key() string { return r.kind + "/" + r.code }

func closureQuery(code string) string {
	return fmt.Sprintf(`(x: Business; fiscalCode: %q) ([: OWNS])+ (y: Business)`, code)
}

func majorityQuery(code string) string {
	return fmt.Sprintf(`(h) [: OWNS; percentage: p] (y: Business; fiscalCode: %q), p > 0.5`, code)
}

func queryBody(q string) []byte {
	b, _ := json.Marshal(struct { //nolint:errcheck // a string field always marshals
		Query string `json:"query"`
	}{q})
	return b
}

// pattern is the request's MetaLog pattern.
func (r request) pattern() string {
	if r.kind == kindMajority {
		return majorityQuery(r.code)
	}
	return closureQuery(r.code)
}

func newRequest(kind, code string) request {
	r := request{kind: kind, code: code}
	r.body = queryBody(r.pattern())
	return r
}

// readStream draws the read mix. The same seed and targets give the same
// sequence of request bodies.
type readStream struct {
	zipf     *rand.Zipf
	targets  []string
	majority bool // whether the mix includes majority-holder lookups
	n        int
	asked    []request
}

// queryTargets lists the fiscal codes of companies that own at least one
// Business, sorted: every closure query over them has a non-empty answer.
func queryTargets(t *topology) []string {
	var out []string
	for _, id := range t.companies {
		if len(t.out[id]) > 0 {
			out = append(out, t.code[id])
		}
	}
	sort.Strings(out)
	return out
}

func newReadStream(seed int64, targets []string, majority bool) *readStream {
	rng := rand.New(rand.NewSource(seed))
	shuffled := append([]string(nil), targets...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return &readStream{zipf: rand.NewZipf(rng, zipfS, 1, math.MaxUint32), targets: shuffled, majority: majority}
}

func (s *readStream) next() request {
	i := s.n
	s.n++
	if i%repeatEvery == repeatEvery-1 {
		return s.asked[s.zipf.Uint64()%uint64(len(s.asked))]
	}
	fresh := len(s.asked)
	kind := kindClosure
	if s.majority && fresh%majorityEvery == majorityEvery-1 {
		kind = kindMajority
	}
	r := newRequest(kind, s.targets[fresh%len(s.targets)])
	s.asked = append(s.asked, r)
	return r
}

// ---- the write batch stream ----

// batchOps is the size of every /mutate batch.
const batchOps = 32

// opMix is how many of each op a batch holds. An arrival is three ops: an
// add_node of a Business plus one OWNS edge in and one out. Every op reuses
// existing labels and property keys, so the catalog never grows and fact
// maintenance stays incremental.
type opMix struct{ arrivals, adds, removes int }

// writeMix derives the batch mix from two steady-state rules, so that the
// graph a run serves keeps the shape of the generated one however many
// batches it sends:
//
//   - every batch removes as many OWNS edges as it adds (removes = adds +
//     2·arrivals), so the closure work and the compaction size do not drift;
//   - new companies arrive with the snapshot's own density: a batch adds
//     edgesPerCompany OWNS edges for every company it adds.
//
// With 3·arrivals + adds + removes = batchOps the first rule leaves the
// solutions 2·adds + 5·arrivals = batchOps; writeMix picks the one whose
// edges per arrival, (adds + 2·arrivals) / arrivals, is nearest to
// edgesPerCompany. The generated shareholding graph has about 3.1 OWNS
// edges per company, which gives 4 arrivals, 6 adds and 14 removes.
func writeMix(edgesPerCompany float64) opMix {
	best, bestGap := opMix{}, math.Inf(1)
	for n := 1; 5*n <= batchOps; n++ {
		if (batchOps-5*n)%2 != 0 {
			continue
		}
		a := (batchOps - 5*n) / 2
		if gap := math.Abs(float64(a+2*n)/float64(n) - edgesPerCompany); gap < bestGap {
			best, bestGap = opMix{arrivals: n, adds: a, removes: a + 2*n}, gap
		}
	}
	return best
}

// writeStream generates mutation batches against the evolving topology.
// ack applies an acknowledged batch to the topology, so later batches and
// the final oracle see the server's state.
type writeStream struct {
	rng       *rand.Rand
	topo      *topology
	holders   []pg.OID         // every node that may hold a stake
	removable []stake          // generated edges not yet removed, in removal order
	pending   map[pg.OID]stake // edges removed by batches not yet acknowledged
	touched   []pg.OID         // base companies that acknowledged batches gave new stakes
	nextNode  int
	units     []overlay.OpKind // a batch's arrivals, adds and removes, reshuffled per batch
}

func newWriteStream(seed int64, t *topology) *writeStream {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	holders := make([]pg.OID, t.nodes)
	for i := range holders {
		holders[i] = pg.OID(i + 1)
	}
	removable := append([]stake(nil), t.edges...)
	rng.Shuffle(len(removable), func(i, j int) { removable[i], removable[j] = removable[j], removable[i] })
	mix := writeMix(float64(len(t.edges)) / float64(max(1, len(t.companies))))
	var units []overlay.OpKind
	for i := 0; i < mix.arrivals; i++ {
		units = append(units, overlay.OpAddNode)
	}
	for i := 0; i < mix.adds; i++ {
		units = append(units, overlay.OpAddEdge)
	}
	for i := 0; i < mix.removes; i++ {
		units = append(units, overlay.OpRemoveEdge)
	}
	return &writeStream{rng: rng, topo: t, holders: holders, removable: removable, pending: map[pg.OID]stake{}, units: units}
}

func (w *writeStream) company() pg.OID {
	return w.topo.companies[w.rng.Intn(len(w.topo.companies))]
}

func (w *writeStream) pct() value.Value { return value.FloatV(0.01 + 0.29*w.rng.Float64()) }

func ownsProps(pct value.Value) pg.Props { return pg.Props{"percentage": pct} }

// next returns the next batch: the ops of writeMix in a seeded order.
func (w *writeStream) next() []overlay.Op {
	w.rng.Shuffle(len(w.units), func(i, j int) { w.units[i], w.units[j] = w.units[j], w.units[i] })
	ops := make([]overlay.Op, 0, batchOps)
	for _, u := range w.units {
		switch u {
		case overlay.OpAddNode:
			w.nextNode++
			h := fmt.Sprintf("n%d", w.nextNode)
			code := fmt.Sprintf("NB%08d", w.nextNode)
			ops = append(ops,
				overlay.Op{Kind: overlay.OpAddNode, Name: h, Labels: []string{"Business", "Entity"},
					Props: pg.Props{"fiscalCode": value.Str(code)}},
				overlay.Op{Kind: overlay.OpAddEdge, From: overlay.Ref{Name: h}, To: overlay.Ref{ID: w.company()},
					Label: "OWNS", Props: ownsProps(w.pct())},
				overlay.Op{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: w.company()}, To: overlay.Ref{Name: h},
					Label: "OWNS", Props: ownsProps(w.pct())})
		// The generated edges outnumber the removes of any run a hundredfold.
		case overlay.OpRemoveEdge:
			s := w.removable[len(w.removable)-1]
			w.removable = w.removable[:len(w.removable)-1]
			w.pending[s.oid] = s
			ops = append(ops, overlay.Op{Kind: overlay.OpRemoveEdge, Edge: s.oid})
		default:
			from := w.holders[w.rng.Intn(len(w.holders))]
			ops = append(ops, overlay.Op{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: from},
				To: overlay.Ref{ID: w.company()}, Label: "OWNS", Props: ownsProps(w.pct())})
		}
	}
	return ops
}

// ack applies an acknowledged batch to the topology. assigned maps the
// batch's add_node handles to the OIDs the server gave them.
func (w *writeStream) ack(ops []overlay.Op, assigned map[string]int64) error {
	resolve := func(r overlay.Ref) (pg.OID, error) {
		if r.Name == "" {
			return r.ID, nil
		}
		id, ok := assigned[r.Name]
		if !ok {
			return 0, fmt.Errorf("server assigned no OID to handle %q", r.Name)
		}
		return pg.OID(id), nil
	}
	for _, op := range ops {
		switch op.Kind {
		case overlay.OpAddNode:
			id, err := resolve(overlay.Ref{Name: op.Name})
			if err != nil {
				return err
			}
			w.holders = append(w.holders, id)
		case overlay.OpAddEdge:
			from, err := resolve(op.From)
			if err != nil {
				return err
			}
			to, err := resolve(op.To)
			if err != nil {
				return err
			}
			w.topo.out[from] = append(w.topo.out[from], to)
			if _, base := w.topo.code[from]; base {
				w.touched = append(w.touched, from)
			}
		case overlay.OpRemoveEdge:
			s, ok := w.pending[op.Edge]
			if !ok {
				return fmt.Errorf("batch removes edge %d the stream never drew", op.Edge)
			}
			delete(w.pending, op.Edge)
			w.topo.removeEdge(s.from, s.to)
		}
	}
	return nil
}

// drop forgets a batch the server rejected: its edges stay in the graph.
func (w *writeStream) drop(ops []overlay.Op) {
	for _, op := range ops {
		if op.Kind == overlay.OpRemoveEdge {
			delete(w.pending, op.Edge)
		}
	}
}

// touchedRequests returns closure requests for up to n distinct base
// companies that acknowledged batches gave new stakes, most recent first.
func (w *writeStream) touchedRequests(n int) []request {
	seen := map[pg.OID]bool{}
	var out []request
	for i := len(w.touched) - 1; i >= 0 && len(out) < n; i-- {
		id := w.touched[i]
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, newRequest(kindClosure, w.topo.code[id]))
	}
	return out
}

// mutateBody is the /mutate request body of a batch.
func mutateBody(ops []overlay.Op) ([]byte, error) {
	enc, err := overlay.EncodeOps(ops)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Ops json.RawMessage `json:"ops"`
	}{enc})
}
