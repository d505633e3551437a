package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/overlay"
)

func smallTopology(t *testing.T, seed int64) *topology {
	t.Helper()
	res, err := ingest(fingraph.DefaultConfig(2000, seed), filepath.Join(t.TempDir(), "g.snap"), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.frozenNodes != res.nodes || res.frozenEdges != res.edges || len(res.topo.edges) != res.edges {
		t.Fatalf("recorded %d edges; loader froze %d nodes, %d edges; generator streamed %d, %d",
			len(res.topo.edges), res.frozenNodes, res.frozenEdges, res.nodes, res.edges)
	}
	return res.topo
}

func readBodies(seed int64, targets []string, n int) [][]byte {
	s := newReadStream(seed, targets, true)
	out := make([][]byte, n)
	for i := range out {
		out[i] = s.next().body
	}
	return out
}

func TestReadStreamIsDeterministicPerSeed(t *testing.T) {
	targets := queryTargets(smallTopology(t, 7))
	a, b := readBodies(3, targets, 500), readBodies(3, targets, 500)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two streams of seed 3:\n%s\n%s", i, a[i], b[i])
		}
	}
	c := readBodies(4, targets, 500)
	same := 0
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 3 and 4 gave the same request stream")
	}
}

func TestReadStreamShares(t *testing.T) {
	targets := queryTargets(smallTopology(t, 7))
	s := newReadStream(1, targets, true)
	seen := map[string]bool{}
	repeats, majority := 0, 0
	// Stay within the targets: past them, fresh requests start over.
	n := len(targets) / 25 * 25
	for i := 0; i < n; i++ {
		r := s.next()
		if seen[r.key()] {
			repeats++
		} else if r.kind == kindMajority {
			majority++
		}
		seen[r.key()] = true
	}
	if repeats != n/repeatEvery {
		t.Errorf("%d repeats in %d requests, want %d", repeats, n, n/repeatEvery)
	}
	if fresh := n - n/repeatEvery; majority != fresh/majorityEvery {
		t.Errorf("%d majority lookups among %d fresh requests, want %d", majority, fresh, fresh/majorityEvery)
	}
}

// writeBodies replays a write stream with every batch acknowledged, handing
// out OIDs the way a server would: in order, past every existing one.
func writeBodies(t *testing.T, topo *topology, seed int64, batches int) [][]byte {
	t.Helper()
	ws := newWriteStream(seed, topo)
	next := int64(1 << 40)
	var out [][]byte
	for i := 0; i < batches; i++ {
		ops := ws.next()
		if len(ops) != batchOps {
			t.Fatalf("batch %d has %d ops", i, len(ops))
		}
		body, err := mutateBody(ops)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
		assigned := map[string]int64{}
		for _, op := range ops {
			if op.Kind == overlay.OpAddNode {
				next++
				assigned[op.Name] = next
			}
		}
		if err := ws.ack(ops, assigned); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestWriteStreamIsDeterministicPerSeed(t *testing.T) {
	a := writeBodies(t, smallTopology(t, 7), 3, 20)
	b := writeBodies(t, smallTopology(t, 7), 3, 20)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("batch %d differs between two streams of seed 3", i)
		}
	}
	c := writeBodies(t, smallTopology(t, 7), 4, 1)
	if bytes.Equal(a[0], c[0]) {
		t.Fatal("seeds 3 and 4 gave the same first batch")
	}
}

func TestWriteMixIsEdgeNeutral(t *testing.T) {
	for rho := 1.0; rho <= 8; rho += 0.25 {
		m := writeMix(rho)
		if 3*m.arrivals+m.adds+m.removes != batchOps {
			t.Errorf("ρ=%v: mix %+v does not fill a batch of %d", rho, m, batchOps)
		}
		if m.removes != m.adds+2*m.arrivals {
			t.Errorf("ρ=%v: mix %+v adds %d edges and removes %d", rho, m, m.adds+2*m.arrivals, m.removes)
		}
	}
	topo := smallTopology(t, 7)
	rho := float64(len(topo.edges)) / float64(len(topo.companies))
	if m, want := writeMix(rho), (opMix{arrivals: 4, adds: 6, removes: 14}); m != want {
		t.Errorf("generated graph has %.2f OWNS edges per company: mix %+v, want %+v", rho, m, want)
	}
}

func TestWriteStreamBatchesKeepEdgeCount(t *testing.T) {
	ws := newWriteStream(5, smallTopology(t, 7))
	for i := 0; i < 10; i++ {
		added, removed := 0, 0
		for _, op := range ws.next() {
			switch op.Kind {
			case overlay.OpAddEdge:
				added++
			case overlay.OpRemoveEdge:
				removed++
			}
		}
		if added != removed {
			t.Fatalf("batch %d adds %d edges and removes %d", i, added, removed)
		}
	}
}
