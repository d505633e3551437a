package metalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// factsDBEqual asserts that both databases hold the same non-empty relations
// with the same facts at the same positions. Position identity is the point:
// engine derivation order (and therefore query row order) follows relation
// insertion order, so the incremental path must reproduce ExtractFacts'
// ordering exactly, not just its fact set.
func factsDBEqual(t *testing.T, tag string, got, want *vadalog.Database) {
	t.Helper()
	preds := map[string]bool{}
	for _, p := range got.Predicates() {
		if got.Count(p) > 0 {
			preds[p] = true
		}
	}
	for _, p := range want.Predicates() {
		if want.Count(p) > 0 {
			preds[p] = true
		}
	}
	for p := range preds {
		gf, wf := got.Facts(p), want.Facts(p)
		if len(gf) != len(wf) {
			t.Fatalf("%s: relation %s: %d facts vs %d", tag, p, len(gf), len(wf))
		}
		for i := range gf {
			if !reflect.DeepEqual(gf[i], wf[i]) {
				t.Fatalf("%s: relation %s position %d: %v vs %v", tag, p, i, gf[i], wf[i])
			}
		}
	}
}

func deltaBase(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.New()
	mustNode := func(labels []string, props pg.Props) *pg.Node { return g.AddNode(labels, props) }
	a := mustNode([]string{"Company"}, pg.Props{"name": value.Str("acme"), "share": value.IntV(10)})
	b := mustNode([]string{"Company", "Bank"}, pg.Props{"name": value.Str("bcorp")})
	c := mustNode([]string{"Person"}, pg.Props{"name": value.Str("carla"), "share": value.FloatV(0.5)})
	if _, err := g.AddEdge(a.ID, b.ID, "owns", pg.Props{"share": value.FloatV(0.2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(c.ID, a.ID, "owns", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(c.ID, b.ID, "controls", nil); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestApplyFactsDeltaOrderPin pins the core contract on a hand-built batch:
// the maintained database is position-for-position identical to a fresh
// ExtractFacts over the mutated view.
func TestApplyFactsDeltaOrderPin(t *testing.T) {
	g := deltaBase(t)
	frozen := g.Freeze()
	cat := FromGraph(frozen)
	db, err := ExtractFacts(frozen, cat)
	if err != nil {
		t.Fatal(err)
	}

	ov := overlay.New(frozen)
	diff, err := ov.Apply([]overlay.Op{
		{Kind: overlay.OpAddNode, Name: "n", Labels: []string{"Company"}, Props: pg.Props{"name": value.Str("newco")}},
		{Kind: overlay.OpAddEdge, From: overlay.Ref{Name: "n"}, To: overlay.Ref{ID: 1}, Label: "owns"},
		{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: 3}}, // cascades both of carla's edges
		{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: 1}, Key: "share", Value: value.IntV(99)},
		// Person's layout is [name, share], which covers node 1's props.
		{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: 1}, Label: "Person"},
	})
	if err != nil {
		t.Fatal(err)
	}

	got, ok := ApplyFactsDelta(db, cat, diff)
	if !ok {
		t.Fatal("expected incremental path (batch stays inside the catalog)")
	}
	want, err := ExtractFacts(ov, cat)
	if err != nil {
		t.Fatal(err)
	}
	factsDBEqual(t, "batch", got, want)

	// The input database is untouched.
	orig, err := ExtractFacts(frozen, cat)
	if err != nil {
		t.Fatal(err)
	}
	factsDBEqual(t, "input-preserved", db, orig)

	// An empty diff returns the database unchanged (same pointer is fine).
	same, ok := ApplyFactsDelta(db, cat, overlay.Diff{})
	if !ok || same != db {
		t.Fatal("empty diff must be the identity")
	}
}

// TestApplyFactsDeltaFallback pins when the incremental path must refuse:
// any construct needing columns the catalog lacks.
func TestApplyFactsDeltaFallback(t *testing.T) {
	g := deltaBase(t)
	frozen := g.Freeze()
	cat := FromGraph(frozen)
	db, err := ExtractFacts(frozen, cat)
	if err != nil {
		t.Fatal(err)
	}

	cases := [][]overlay.Op{
		// A node label the catalog has never seen.
		{{Kind: overlay.OpAddNode, Labels: []string{"Exotic"}}},
		// A known label with a property outside its layout.
		{{Kind: overlay.OpAddNode, Labels: []string{"Person"}, Props: pg.Props{"salary": value.IntV(1)}}},
		// A property set gaining a new key on an existing node.
		{{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: 1}, Key: "founded", Value: value.IntV(1900)}},
		// A label gain to a label unknown to the catalog.
		{{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: 1}, Label: "Exotic"}},
		// A gain of a known label whose layout lacks the node's properties:
		// Bank's layout is [name], but node 3 also carries share.
		{{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: 3}, Label: "Bank"}},
		// An edge label the catalog has never seen.
		{{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: 1}, To: overlay.Ref{ID: 2}, Label: "audits"}},
		// A known edge label with an out-of-layout property.
		{{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: 1}, To: overlay.Ref{ID: 2}, Label: "owns",
			Props: pg.Props{"since": value.IntV(2001)}}},
	}
	for i, ops := range cases {
		ov := overlay.New(frozen)
		diff, err := ov.Apply(ops)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if _, ok := ApplyFactsDelta(db, cat, diff); ok {
			t.Errorf("case %d: expected ok=false (catalog cannot cover the batch)", i)
		}
		// The fallback the caller performs — re-infer and re-extract — must
		// accept the view.
		fullCat := FromGraph(ov)
		if _, err := ExtractFacts(ov, fullCat); err != nil {
			t.Fatalf("case %d: fallback extract: %v", i, err)
		}
	}
}

// TestApplyFactsDeltaSweep drives random mutation lineages, re-checking after
// every batch that incremental maintenance matches a full re-extraction —
// including the catalog-growth fallback a serving lineage would take.
func TestApplyFactsDeltaSweep(t *testing.T) {
	nodeLabels := []string{"Company", "Person"}
	edgeLabels := []string{"owns", "controls"}
	propKeys := []string{"name", "share"}
	sharedChecked := 0
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := pg.New()
			var oids []pg.OID
			for i := 0; i < 8; i++ {
				n := g.AddNode(
					[]string{nodeLabels[rng.Intn(len(nodeLabels))]},
					pg.Props{propKeys[rng.Intn(len(propKeys))]: value.IntV(int64(rng.Intn(50)))})
				oids = append(oids, n.ID)
			}
			// Seed every label and key so the initial catalog is total.
			g.AddNode(nodeLabels, pg.Props{"name": value.Str("x"), "share": value.IntV(1)})
			for i := 0; i < 10; i++ {
				from := oids[rng.Intn(len(oids))]
				to := oids[rng.Intn(len(oids))]
				if _, err := g.AddEdge(from, to, edgeLabels[rng.Intn(len(edgeLabels))],
					pg.Props{"share": value.IntV(int64(rng.Intn(9)))}); err != nil {
					t.Fatal(err)
				}
			}
			for _, l := range edgeLabels {
				g.AddNode(nil, nil) // unlabeled nodes are invisible to extraction
				if _, err := g.AddEdge(oids[0], oids[1], l, pg.Props{"name": value.Str("k"), "share": value.IntV(0)}); err != nil {
					t.Fatal(err)
				}
			}

			frozen := g.Freeze()
			cat := FromGraph(frozen)
			db, err := ExtractFacts(frozen, cat)
			if err != nil {
				t.Fatal(err)
			}
			ov := overlay.New(frozen)

			for batch := 0; batch < 5; batch++ {
				ops := randDeltaOps(rng, ov, nodeLabels, edgeLabels, propKeys)
				diff, err := ov.Apply(ops)
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				inputDump := db.Dump()
				next, ok := ApplyFactsDelta(db, cat, diff)
				if db.Dump() != inputDump {
					t.Fatalf("batch %d: ApplyFactsDelta modified its input", batch)
				}
				if ok {
					// Relations the diff does not name are shared with the
					// input by pointer, not copied.
					touched := diffLabels(diff)
					for _, pred := range db.Predicates() {
						if touched[pred] {
							continue
						}
						if next.Relation(pred) != db.Relation(pred) {
							t.Fatalf("batch %d: untouched relation %s was not shared with the input", batch, pred)
						}
						sharedChecked++
					}
				}
				if !ok {
					// The lineage fallback: re-infer the catalog, full extract.
					cat = FromGraph(ov)
					if next, err = ExtractFacts(ov, cat); err != nil {
						t.Fatalf("batch %d fallback: %v", batch, err)
					}
				}
				want, err := ExtractFacts(ov, cat)
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				factsDBEqual(t, fmt.Sprintf("batch %d", batch), next, want)
				db = next
			}
		})
	}
	if sharedChecked == 0 {
		t.Fatal("no batch left a relation untouched; the sharing check is vacuous")
	}
	t.Logf("%d untouched relations checked for sharing", sharedChecked)
}

// diffLabels names every relation a diff can touch: each label of a node
// added, removed or changed (before and after), and each edge label.
func diffLabels(diff overlay.Diff) map[string]bool {
	out := map[string]bool{}
	nodes := append(append([]*pg.Node(nil), diff.AddedNodes...), diff.RemovedNodes...)
	for _, c := range diff.ChangedNodes {
		nodes = append(nodes, c.Before, c.After)
	}
	for _, n := range nodes {
		for _, l := range n.Labels {
			out[l] = true
		}
	}
	for _, e := range append(append([]*pg.Edge(nil), diff.AddedEdges...), diff.RemovedEdges...) {
		out[e.Label] = true
	}
	return out
}

// randDeltaOps emits a valid mutation batch against the overlay's current
// state, occasionally stepping outside the catalog (new property key) to
// exercise the fallback path.
func randDeltaOps(rng *rand.Rand, ov *overlay.Overlay, nodeLabels, edgeLabels, propKeys []string) []overlay.Op {
	var liveNodes []pg.OID
	for _, n := range ov.Nodes() {
		liveNodes = append(liveNodes, n.ID)
	}
	var liveEdges []pg.OID
	for _, e := range ov.Edges() {
		liveEdges = append(liveEdges, e.ID)
	}
	removed := map[pg.OID]bool{}
	pick := func(ids []pg.OID) (pg.OID, bool) {
		alive := ids[:0:0]
		for _, id := range ids {
			if !removed[id] {
				alive = append(alive, id)
			}
		}
		if len(alive) == 0 {
			return 0, false
		}
		return alive[rng.Intn(len(alive))], true
	}
	var ops []overlay.Op
	handles := 0
	for k := 0; k < 4+rng.Intn(5); k++ {
		switch rng.Intn(6) {
		case 0:
			handles++
			ops = append(ops, overlay.Op{Kind: overlay.OpAddNode,
				Name:   fmt.Sprintf("h%d", handles),
				Labels: []string{nodeLabels[rng.Intn(len(nodeLabels))]},
				Props:  pg.Props{propKeys[rng.Intn(len(propKeys))]: value.IntV(int64(rng.Intn(50)))}})
		case 1:
			from, ok1 := pick(liveNodes)
			to, ok2 := pick(liveNodes)
			if ok1 && ok2 {
				ops = append(ops, overlay.Op{Kind: overlay.OpAddEdge,
					From: overlay.Ref{ID: from}, To: overlay.Ref{ID: to},
					Label: edgeLabels[rng.Intn(len(edgeLabels))]})
			}
		case 2:
			if id, ok := pick(liveNodes); ok {
				removed[id] = true
				for _, e := range ov.Out(id) {
					removed[e.ID] = true
				}
				for _, e := range ov.In(id) {
					removed[e.ID] = true
				}
				ops = append(ops, overlay.Op{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: id}})
			}
		case 3:
			if id, ok := pick(liveEdges); ok {
				removed[id] = true
				ops = append(ops, overlay.Op{Kind: overlay.OpRemoveEdge, Edge: id})
			}
		case 4:
			if id, ok := pick(liveNodes); ok {
				key := propKeys[rng.Intn(len(propKeys))]
				if rng.Intn(10) == 0 {
					key = fmt.Sprintf("extra%d", rng.Intn(2)) // outside the catalog
				}
				ops = append(ops, overlay.Op{Kind: overlay.OpSetNodeProp,
					Node: overlay.Ref{ID: id}, Key: key, Value: value.IntV(int64(rng.Intn(50)))})
			}
		case 5:
			if id, ok := pick(liveNodes); ok {
				ops = append(ops, overlay.Op{Kind: overlay.OpAddLabel,
					Node: overlay.Ref{ID: id}, Label: nodeLabels[rng.Intn(len(nodeLabels))]})
			}
		}
	}
	return ops
}
