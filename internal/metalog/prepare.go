package metalog

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pg"
	"repro/internal/plan"
	"repro/internal/vadalog"
)

// Prepared is a compiled query: the pattern parsed, translated and — when
// the statistics catalog admits it — planned once, to be run many times
// against databases extracted under the same catalog. This is the serving
// layer's plan-cache entry: after PrepareQuery returns, a Prepared is
// immutable and safe for concurrent QueryDB calls (the engine never mutates
// the program, and evaluates over a copy-on-write layer of a frozen
// database — see QueryDB).
type Prepared struct {
	pattern string
	vars    []string
	cat     *Catalog

	// unplanned is the written-order translation; planned is the cost-based
	// transformation of it, nil when planning fell back entirely (the info
	// plan then names why).
	unplanned *vadalog.Program
	planned   *vadalog.Program
	info      *plan.Plan
	estRows   float64

	stale bool
}

// PlanLayout exports the catalog's column layouts in the planner's terms:
// node relations are (oid, props...), edge relations (oid, from, to,
// props...), properties in catalog order. The maps and slices are copies —
// later catalog growth does not reach a Layout already handed out.
func (c *Catalog) PlanLayout() plan.Layout {
	lay := plan.Layout{
		NodeProps: make(map[string][]string, len(c.NodeProps)),
		EdgeProps: make(map[string][]string, len(c.EdgeProps)),
	}
	for l, ps := range c.NodeProps {
		lay.NodeProps[l] = append([]string(nil), ps...)
	}
	for l, ps := range c.EdgeProps {
		lay.EdgeProps[l] = append([]string(nil), ps...)
	}
	return lay
}

// ComputePlanStats builds the planner's statistics catalog for a graph view
// under its MetaLog catalog — the cheap per-generation pass the serving
// layer runs at snapshot-build time.
func ComputePlanStats(g pg.View, cat *Catalog) *plan.Stats {
	return plan.ComputeStats(g, cat.PlanLayout())
}

// PrepareQuery parses, translates and plans a pattern against cat. The
// catalog is extended with the query-result layout (and any layouts the
// pattern introduces) and must be private to the Prepared — Catalog.Clone a
// shared one. A nil stats catalog skips planning: the Prepared still works,
// reporting an unplanned Plan. Planning never fails a query: any planner
// fault or unsupported shape falls back to the written-order program,
// recorded in Plan().Fallback and the obs fallback counter.
func PrepareQuery(cat *Catalog, pattern string, st *plan.Stats) (*Prepared, error) {
	nodeW := layoutWidths(cat.NodeProps)
	edgeW := layoutWidths(cat.EdgeProps)
	tr, vars, err := buildQueryProgram(pattern, cat)
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		pattern:   pattern,
		vars:      vars,
		cat:       cat,
		unplanned: tr.Program,
		stale:     catalogGrew(cat, nodeW, edgeW),
	}
	planned, info, perr := plan.Compile(tr.Program, st, plan.Options{Demand: true})
	if perr != nil {
		obs.CountPlanFallback()
		p.info = plan.Unplanned("planning failed: " + perr.Error())
		return p, nil
	}
	p.info = info
	if info.Planned {
		p.planned = planned
		p.estRows = info.OutputEst(queryResultLabel)
	} else {
		obs.CountPlanFallback()
	}
	return p, nil
}

// Plan returns the explain output of the prepare-time planning pass.
func (p *Prepared) Plan() *plan.Plan { return p.info }

// Planned reports whether QueryDB executes the cost-based transformation
// (true) or the written-order program (false).
func (p *Prepared) Planned() bool { return p.planned != nil }

// Vars returns the pattern's named variables, sorted — the result columns.
func (p *Prepared) Vars() []string { return p.vars }

// EstimatedRows is the planner's cardinality estimate for the result set;
// 0 when unplanned.
func (p *Prepared) EstimatedRows() float64 { return p.estRows }

// Stale reports that the pattern needs catalog layouts beyond the ones a
// pre-extracted database was built with; QueryDB will fail with
// ErrStaleDatabase and the caller must re-extract (see QueryWithCatalogCtx).
func (p *Prepared) Stale() bool { return p.stale }

// QueryDB evaluates the prepared pattern against a pre-extracted fact
// database (see ExtractFacts), running the planned program when one exists.
// A frozen database is shared, never written: the run derives into a
// per-query layer over it (vadalog.Database.Layer), so concurrent QueryDB
// calls over one frozen database need no copy of it. A private database is
// cloned unless opts.OwnInput hands it over. Provenance runs always take the
// written-order program — proof trees are explained against the program as
// written.
func (p *Prepared) QueryDB(ctx context.Context, db *vadalog.Database, opts vadalog.Options) ([]QueryRow, error) {
	if p.stale {
		return nil, fmt.Errorf("prepared pattern: %w", ErrStaleDatabase)
	}
	prog := p.planned
	planned := prog != nil && !opts.Provenance
	if !planned {
		prog = p.unplanned
	}
	rows, err := runQueryProgram(ctx, prog, p.vars, db, p.cat, opts)
	if err != nil {
		return nil, err
	}
	obs.CountPlanRun(planned, int64(p.estRows), int64(len(rows)))
	return rows, nil
}

// layoutWidths snapshots the arity of every label's layout, for the
// staleness check PrepareQuery shares with QueryDBCtx.
func layoutWidths(m map[string][]string) map[string]int {
	out := make(map[string]int, len(m))
	for l, ps := range m {
		out[l] = len(ps)
	}
	return out
}

// catalogGrew reports whether translation extended cat beyond the recorded
// widths (ignoring the query-result layout, which every query adds).
func catalogGrew(cat *Catalog, nodeW, edgeW map[string]int) bool {
	for l, ps := range cat.NodeProps {
		if l == queryResultLabel {
			continue
		}
		if w, ok := nodeW[l]; !ok || len(ps) != w {
			return true
		}
	}
	for l, ps := range cat.EdgeProps {
		if w, ok := edgeW[l]; !ok || len(ps) != w {
			return true
		}
	}
	return false
}
