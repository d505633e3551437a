package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/instance"
	"repro/internal/pg"
)

// The output oracles. Each one recomputes an answer natively from the
// benchmark's own record of the generated inputs and fails the run on any
// difference from what the system returned.

// queryAnswer is the part of a /query body the oracles read.
type queryAnswer struct {
	Rows  []map[string]json.Number `json:"rows"`
	Count int                      `json:"count"`
	Total int                      `json:"total"`
}

func decodeAnswer(body []byte) (*queryAnswer, error) {
	var a queryAnswer
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("decoding query answer: %w", err)
	}
	if a.Count != len(a.Rows) || a.Total != a.Count {
		return nil, fmt.Errorf("answer reports count %d, total %d for %d rows", a.Count, a.Total, len(a.Rows))
	}
	return &a, nil
}

func oidOf(row map[string]json.Number, col string) (pg.OID, error) {
	n, err := strconv.ParseInt(string(row[col]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("column %s: %q is not an OID", col, row[col])
	}
	return pg.OID(n), nil
}

// reach returns every node reachable from src over one or more OWNS edges:
// a native breadth-first search over the adjacency.
func (t *topology) reach(src pg.OID) map[pg.OID]bool {
	seen := map[pg.OID]bool{}
	queue := append([]pg.OID(nil), t.out[src]...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		queue = append(queue, t.out[n]...)
	}
	return seen
}

// checkAnswer compares a /query answer for req with the native answer.
func (t *topology) checkAnswer(req request, body []byte) error {
	a, err := decodeAnswer(body)
	if err != nil {
		return err
	}
	target, ok := t.byCode[req.code]
	if !ok {
		return fmt.Errorf("no company has fiscal code %s", req.code)
	}
	switch req.kind {
	case kindClosure:
		return checkClosure(a, target, t.reach(target))
	case kindMajority:
		return t.checkMajority(a, target)
	}
	return fmt.Errorf("unknown query kind %q", req.kind)
}

func checkClosure(a *queryAnswer, x pg.OID, want map[pg.OID]bool) error {
	got := map[pg.OID]bool{}
	for _, row := range a.Rows {
		rx, err := oidOf(row, "x")
		if err != nil {
			return err
		}
		y, err := oidOf(row, "y")
		if err != nil {
			return err
		}
		if rx != x {
			return fmt.Errorf("closure of %d: row has x = %d", x, rx)
		}
		if got[y] {
			return fmt.Errorf("closure of %d: y = %d appears twice", x, y)
		}
		got[y] = true
		if !want[y] {
			return fmt.Errorf("closure of %d: %d is not reachable", x, y)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("closure of %d: %d rows, native search reaches %d nodes", x, len(got), len(want))
	}
	return nil
}

func (t *topology) checkMajority(a *queryAnswer, y pg.OID) error {
	want := map[string]bool{}
	for _, s := range t.in[y] {
		if s.pct > 0.5 {
			want[fmt.Sprint(s.from, "/", s.pct)] = true
		}
	}
	got := map[string]bool{}
	for _, row := range a.Rows {
		ry, err := oidOf(row, "y")
		if err != nil {
			return err
		}
		h, err := oidOf(row, "h")
		if err != nil {
			return err
		}
		p, err := row["p"].Float64()
		if err != nil {
			return fmt.Errorf("column p: %w", err)
		}
		if ry != y {
			return fmt.Errorf("majority holders of %d: row has y = %d", y, ry)
		}
		k := fmt.Sprint(h, "/", p)
		if !want[k] {
			return fmt.Errorf("majority holders of %d: unexpected holder %s", y, k)
		}
		got[k] = true
	}
	if len(got) != len(want) {
		return fmt.Errorf("majority holders of %d: %d rows, native scan finds %d", y, len(got), len(want))
	}
	return nil
}

// checkControl compares the CONTROLS edges the §6 pipeline derived with
// finance.NativeControl over the same topology. The σ derives control from
// Business controllers through Business-held stakes only, so the native
// side runs over the company-to-company ownership; self-control pairs (the
// recursion seed) are not compared.
func checkControl(topo *fingraph.Topology, data pg.View, loaded *instance.Loaded, derived *instance.Derived) (int, error) {
	// Company index i is the i-th Business node in fiscal-code order: codes
	// are fixed-width, so their order is the index order.
	business := append([]*pg.Node(nil), data.NodesByLabel("Business")...)
	sort.Slice(business, func(i, j int) bool {
		return business[i].Props["fiscalCode"].S < business[j].Props["fiscalCode"].S
	})
	if len(business) != topo.Companies {
		return 0, fmt.Errorf("instance has %d Business nodes for %d companies", len(business), topo.Companies)
	}
	companyOf := map[pg.OID]int{} // I_SM_Node OID → company index
	for i, n := range business {
		ioid, ok := loaded.SourceNode[n.ID]
		if !ok {
			return 0, fmt.Errorf("business node %d was not loaded", n.ID)
		}
		companyOf[ioid] = i
	}

	got := map[finance.ControlPair]bool{}
	for _, e := range derived.NewEdges {
		if e.Type != "CONTROLS" {
			continue
		}
		x, okx := companyOf[e.From]
		y, oky := companyOf[e.To]
		if !okx || !oky {
			return 0, fmt.Errorf("CONTROLS edge %d→%d joins entities that are not companies", e.From, e.To)
		}
		if x != y {
			got[finance.ControlPair{Controller: x, Controlled: y}] = true
		}
	}

	own := finance.BuildOwnership(topo)
	companyOwn := &finance.Ownership{Out: map[int][]finance.StakeTo{}, In: map[int][]finance.StakeFrom{}}
	for owner, stakes := range own.Out {
		if owner >= 0 {
			companyOwn.Out[owner] = stakes
		}
	}
	for _, e := range own.Entities {
		if e >= 0 {
			companyOwn.Entities = append(companyOwn.Entities, e)
		}
	}
	want := finance.NativeControl(companyOwn, true)
	if len(got) != len(want) {
		return 0, fmt.Errorf("CONTROLS: pipeline derived %d pairs, native control finds %d", len(got), len(want))
	}
	for _, p := range want {
		if !got[p] {
			return 0, fmt.Errorf("CONTROLS: pipeline misses %d→%d", p.Controller, p.Controlled)
		}
	}
	return len(want), nil
}
