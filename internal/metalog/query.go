package metalog

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// Pattern-matching queries: the paper grounds MetaLog in the UC2RPQ
// tradition of navigational query languages (XPath, SPARQL, Cypher —
// Section 1 desiderata). Query exposes that capability directly: a MetaLog
// rule body — chains with regular path patterns, conditions, expressions —
// evaluated against a property graph, returning one row per match.
//
//	rows, err := metalog.Query(g, `
//	    (x: Business; businessName: n) [: CONTROLS] (y: Business),
//	    x != y
//	`, vadalog.Options{})
//
// Every named variable of the pattern becomes a column. Variables bound to
// node or edge identifiers hold the pg.OID as an integer value.

// QueryRow is one match of a query pattern: variable name → value.
type QueryRow map[string]value.Value

// OID reads a variable bound to a node or edge identifier.
func (r QueryRow) OID(name string) (pg.OID, bool) {
	v, ok := r[name]
	if !ok {
		return 0, false
	}
	i, ok := v.AsInt()
	return pg.OID(i), ok
}

const queryResultLabel = "__QueryResult"

// Query evaluates a MetaLog body pattern against the graph and returns the
// matches in deterministic order. The catalog is inferred from the graph.
func Query(g pg.View, pattern string, opts vadalog.Options) ([]QueryRow, error) {
	return QueryCtx(context.Background(), g, pattern, opts)
}

// QueryCtx is Query under a context: the evaluation stops cooperatively once
// ctx is canceled or its deadline expires (see vadalog.RunCtx).
func QueryCtx(ctx context.Context, g pg.View, pattern string, opts vadalog.Options) ([]QueryRow, error) {
	return QueryWithCatalogCtx(ctx, g, FromGraph(g), pattern, opts)
}

// QueryWithCatalog is Query with a caller-provided catalog (schema-derived
// layouts). The catalog is extended with the query-result layout and must be
// private to the call.
func QueryWithCatalog(g pg.View, cat *Catalog, pattern string, opts vadalog.Options) ([]QueryRow, error) {
	return QueryWithCatalogCtx(context.Background(), g, cat, pattern, opts)
}

// QueryWithCatalogCtx is QueryWithCatalog under a context.
func QueryWithCatalogCtx(ctx context.Context, g pg.View, cat *Catalog, pattern string, opts vadalog.Options) ([]QueryRow, error) {
	// Translate before extracting: a pattern may mention labels or
	// properties absent from the catalog, which Translate adds to the
	// layouts — extraction then emits the corresponding null columns and
	// the query binds them to Missing instead of failing on arity.
	tr, vars, err := buildQueryProgram(pattern, cat)
	if err != nil {
		return nil, err
	}
	db, err := ExtractFacts(g, cat)
	if err != nil {
		return nil, err
	}
	// The fact database was extracted for this call alone; hand it over so
	// the engine skips its defensive clone.
	opts.OwnInput = true
	return runQueryProgram(ctx, tr.Program, vars, db, cat, opts)
}

// ErrStaleDatabase reports that a query needs catalog layouts beyond the
// ones its pre-extracted database was built with — the pattern mentions a
// label or property the extraction never emitted columns for. Re-extract
// against the extended catalog (or fall back to QueryWithCatalogCtx, which
// does) to serve such a query.
var ErrStaleDatabase = errors.New("metalog: query needs layouts absent from the pre-extracted database")

// QueryDBCtx evaluates a pattern against a pre-extracted fact database (see
// ExtractFacts). A frozen database (vadalog.Database.Freeze) is shared, never
// written: the engine evaluates over a per-query copy-on-write layer, so one
// extraction serves many concurrent queries with no copy of it. A private
// database is cloned by the engine unless opts.OwnInput hands it over. The catalog
// is extended with the query-result layout and must be private to the call
// (Catalog.Clone a shared one). A pattern that mentions labels or properties
// outside the catalog the database was extracted with fails with
// ErrStaleDatabase rather than evaluating against misaligned relations.
func QueryDBCtx(ctx context.Context, db *vadalog.Database, cat *Catalog, pattern string, opts vadalog.Options) ([]QueryRow, error) {
	nodeW := make(map[string]int, len(cat.NodeProps))
	for l, ps := range cat.NodeProps {
		nodeW[l] = len(ps)
	}
	edgeW := make(map[string]int, len(cat.EdgeProps))
	for l, ps := range cat.EdgeProps {
		edgeW[l] = len(ps)
	}
	tr, vars, err := buildQueryProgram(pattern, cat)
	if err != nil {
		return nil, err
	}
	for l, ps := range cat.NodeProps {
		if l == queryResultLabel {
			continue
		}
		if w, ok := nodeW[l]; !ok || len(ps) != w {
			return nil, fmt.Errorf("node label %s: %w", l, ErrStaleDatabase)
		}
	}
	for l, ps := range cat.EdgeProps {
		if w, ok := edgeW[l]; !ok || len(ps) != w {
			return nil, fmt.Errorf("edge label %s: %w", l, ErrStaleDatabase)
		}
	}
	return runQueryProgram(ctx, tr.Program, vars, db, cat, opts)
}

// buildQueryProgram parses a body pattern, wraps it into a __QueryResult
// rule, and translates it against cat (extending cat with any layouts the
// pattern introduces plus the query-result layout). It returns the compiled
// program and the sorted pattern variables.
func buildQueryProgram(pattern string, cat *Catalog) (*Translation, []string, error) {
	body, err := ParseBody(pattern)
	if err != nil {
		return nil, nil, err
	}
	vars := patternVariables(body)
	if len(vars) == 0 {
		return nil, nil, fmt.Errorf("metalog: query pattern has no named variables")
	}

	// Wrap the body into a rule deriving one __QueryResult node per distinct
	// binding: the result's linker Skolem over all variables makes rows
	// set-semantic, and the variables ride along as properties.
	head := Chain{Nodes: []NodeAtom{{
		ID:    Ident{Functor: "q", SkArgs: vars},
		Label: queryResultLabel,
	}}}
	for _, v := range vars {
		head.Nodes[0].Props = append(head.Nodes[0].Props, PropBinding{Name: v, Var: v})
	}
	prog := &Program{Rules: []Rule{{Body: body, Head: []Chain{head}, Line: 1}}}

	tr, err := Translate(prog, cat)
	if err != nil {
		return nil, nil, err
	}
	return tr, vars, nil
}

func runQueryProgram(ctx context.Context, prog *vadalog.Program, vars []string, db *vadalog.Database, cat *Catalog, opts vadalog.Options) ([]QueryRow, error) {
	res, err := vadalog.RunCtx(ctx, prog, db, opts)
	if err != nil {
		return nil, err
	}

	props := cat.NodeProps[queryResultLabel]
	pos := map[string]int{}
	for i, p := range props {
		pos[p] = i + 1
	}
	var rows []QueryRow
	for _, f := range res.DB.SortedFacts(queryResultLabel) {
		row := QueryRow{}
		for _, v := range vars {
			cell := f[pos[v]]
			if cell.IsZero() || value.Equal(cell, Missing) {
				continue
			}
			row[v] = cell
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ParseBody parses a comma-separated list of MetaLog body conjuncts (the
// left-hand side of a rule), for query patterns.
func ParseBody(src string) ([]BodyElem, error) {
	toks, err := lexMetaLog(src)
	if err != nil {
		return nil, fmt.Errorf("metalog: %w", err)
	}
	p := &parser{toks: toks}
	var out []BodyElem
	for {
		elem, err := p.parseBodyElem()
		if err != nil {
			return nil, fmt.Errorf("metalog: %w", err)
		}
		out = append(out, elem)
		if p.at(",") {
			p.advance()
			continue
		}
		break
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("metalog: line %d: unexpected %q after pattern", t.line, t.text)
	}
	return out, nil
}

// patternVariables collects the named (non-anonymous) variables of a body,
// sorted: node/edge identifiers, property bindings, and expression
// variables.
func patternVariables(body []BodyElem) []string {
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && name != "_" {
			seen[name] = true
		}
	}
	var walkPath func(pe PathExpr)
	walkPath = func(pe PathExpr) {
		switch pe := pe.(type) {
		case Step:
			add(pe.Edge.ID.Var)
			for _, pb := range pe.Edge.Props {
				if !pb.IsConst {
					add(pb.Var)
				}
			}
		case Concat:
			for _, p := range pe.Parts {
				walkPath(p)
			}
		case Alt:
			for _, p := range pe.Branches {
				walkPath(p)
			}
		case Repeat:
			walkPath(pe.Inner)
		case Inv:
			walkPath(pe.Inner)
		}
	}
	for _, be := range body {
		switch be.Kind {
		case BodyChain, BodyNegChain:
			for _, n := range be.Chain.Nodes {
				add(n.ID.Var)
				for _, pb := range n.Props {
					if !pb.IsConst {
						add(pb.Var)
					}
				}
			}
			for _, pe := range be.Chain.Paths {
				walkPath(pe)
			}
		case BodyExpr:
			vs := map[string]bool{}
			collectExprVars(be.Expr, vs)
			for v := range vs {
				add(v)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectExprVars(e *vadalog.Expr, set map[string]bool) {
	if e == nil {
		return
	}
	switch e.Kind {
	case vadalog.ExprVar:
		set[e.Name] = true
	case vadalog.ExprBinary:
		collectExprVars(e.Left, set)
		collectExprVars(e.Right, set)
	case vadalog.ExprUnary:
		collectExprVars(e.Left, set)
	case vadalog.ExprCall:
		for _, a := range e.Args {
			collectExprVars(a, set)
		}
	case vadalog.ExprAggregate:
		collectExprVars(e.Agg.Arg, set)
		collectExprVars(e.Agg.Arg2, set)
		for _, c := range e.Agg.Contributors {
			set[c] = true
		}
	}
}
