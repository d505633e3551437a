package vadalog

// Incremental maintenance under both insertions AND retractions: the live
// write path of the serving roadmap. Incremental (incremental.go) resumes the
// semi-naive fixpoint for monotonically growing inputs; the Maintainer in
// this file additionally supports deleting extensional facts, using the
// classic delete-and-rederive (DRed) algorithm — see Hogan et al.,
// "Knowledge Graphs" (§reasoning) for the technique space, and the paper's §6
// for why a full rebuild per change (~160 min at Bank of Italy scale) is the
// thing to avoid.
//
// A batch is applied in two phases, deletions first:
//
//  1. Over-delete. For every rule H :- B1,…,Bn and every positive body atom
//     occurrence Bi, a variant rule del·H :- …,del·Bi,… computes an
//     over-approximation of the facts that lose a derivation: anything with
//     at least one derivation through a deleted fact. The variants run on a
//     scratch database that shares the live relations (still pre-deletion, as
//     DRed requires) with the private del· relations seeded from the batch.
//     The delta atom is moved to the front of the body — making it the
//     semi-naive driver, so the work is proportional to the delta — unless
//     one of its variables is the target of an assignment literal: fronting
//     would pre-bind the target and flip `X = E` from an assignment into an
//     equality *condition*, which evaluates under value.Equal's
//     kind-insensitive numeric equality while fact identity is canonical
//     (kind-sensitive). In that case the del· atom substitutes for Bi in
//     place, preserving the original binding structure exactly.
//
//  2. Re-derive. The over-deleted facts are removed from the live relations;
//     those still asserted extensionally are put straight back, and the rest
//     become cand· candidates. Every rule re-runs guarded by its own head:
//     H :- cand·H, B1,…,Bn — a firing re-derives a candidate if and only if
//     the remaining database still supports it, and the guarded fixpoint
//     cascades restorations (a restored fact may re-support another
//     candidate). Rules whose head contains an assignment-target variable or
//     an explicit Skolem term cannot be guarded (the guard would pre-bind the
//     assignment target / place a Skolem term in a body), so they are
//     included verbatim: over the post-deletion database every firing is a
//     true derivation, which keeps the pass sound at the cost of a full
//     evaluation of that one rule. Fact rules (empty body) are also included
//     verbatim.
//
// Soundness of the phase-2 guard: after removing Δ⁻ the database is a subset
// of the old model, and a deletion-only change shrinks the model of a
// positive program, so any fact of the new model that is missing was
// over-deleted and is therefore a candidate. The guarded fixpoint thus
// reaches exactly the new model.
//
// Insertions then run the ins·-transformed program (buildInsertionProgram):
// each rule variant is driven by a front-loaded ins· delta atom and heads
// into both the original predicate and its ins· shadow, so each round's
// derivations become the next round's delta — semi-naive evaluation
// expressed as a program transformation over the unmodified engine.
//
// Programs outside the supported class — stratified negation, aggregation
// (monotonic aggregation included: accumulators cannot be un-contributed),
// or existential head variables — fall back transparently to a full
// recomputation from the maintained extensional store; the result is still
// exactly what a fresh Run over the mutated input would produce, and
// DeltaStats.Recomputed reports that the fast path was bypassed.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/value"
)

// siteDelta brackets one maintenance batch; chaos tests arm it to prove that
// a failed batch leaves the maintained database untouched.
var siteDelta = fault.Site("vadalog/delta")

// delPrefix, candPrefix and insPrefix name the private relations of the
// maintenance phases. The middle dot cannot appear in parsed predicate
// names, so the transformed programs can never collide with user predicates.
const (
	delPrefix  = "·del·"
	candPrefix = "·cand·"
	insPrefix  = "·ins·"
)

func delPred(pred string) string  { return delPrefix + pred }
func candPred(pred string) string { return candPrefix + pred }
func insPred(pred string) string  { return insPrefix + pred }

// Delta is one batch of extensional changes: facts to retract and facts to
// assert. Within a batch, deletions apply before additions.
type Delta struct {
	Add map[string][]Fact
	Del map[string][]Fact
}

// NewDelta returns an empty batch.
func NewDelta() Delta {
	return Delta{Add: map[string][]Fact{}, Del: map[string][]Fact{}}
}

// AddFact schedules an extensional assertion.
func (d *Delta) AddFact(pred string, vals ...value.Value) {
	if d.Add == nil {
		d.Add = map[string][]Fact{}
	}
	d.Add[pred] = append(d.Add[pred], Fact(vals))
}

// DelFact schedules an extensional retraction.
func (d *Delta) DelFact(pred string, vals ...value.Value) {
	if d.Del == nil {
		d.Del = map[string][]Fact{}
	}
	d.Del[pred] = append(d.Del[pred], Fact(vals))
}

// Empty reports whether the batch changes nothing.
func (d Delta) Empty() bool {
	for _, fs := range d.Add {
		if len(fs) > 0 {
			return false
		}
	}
	for _, fs := range d.Del {
		if len(fs) > 0 {
			return false
		}
	}
	return true
}

// DeltaStats summarizes one applied batch.
type DeltaStats struct {
	// Added counts facts newly present after the insertion phase: asserted
	// facts that were not already in the database, plus everything the
	// resumed fixpoint derived from them.
	Added int
	// Deleted counts facts removed net of restorations.
	Deleted int
	// OverDeleted counts the facts the DRed over-deletion phase removed
	// before re-derivation (always ≥ the net Deleted).
	OverDeleted int
	// Rederived counts over-deleted facts the re-derivation phase restored.
	Rederived int
	// Recomputed reports that the batch was applied by full recomputation —
	// either because the program is outside the incremental class, or as
	// recovery after a failed incremental attempt was rolled back.
	Recomputed bool
	// Duration is the wall-clock time of the batch.
	Duration time.Duration
}

// Maintainer keeps a database saturated under batches of extensional
// insertions and deletions. It is not safe for concurrent use.
type Maintainer struct {
	prog *Program
	db   *Database
	opts Options

	// edb tracks the asserted (extensional) facts per predicate: the facts
	// present before the initial saturation, minus retractions, plus
	// assertions. It is authoritative — the fallback and recovery paths
	// recompute the whole database from it.
	edb map[string]*Relation

	// unsupported, when non-empty, names the program feature that forces the
	// full-recompute path for every batch.
	unsupported string

	// delProg, candProg and insProg are the cached maintenance program
	// transformations, pre-analyzed once so each Apply skips the per-run
	// stratification pass (nil for unsupported programs).
	delProg  *maintProg
	candProg *maintProg
	insProg  *maintProg

	// pool holds the reusable shadow relations (del·/cand·/ins· predicates)
	// keyed by predicate name. Each Apply resets and re-registers them in
	// its scratch database instead of growing fresh ones, which keeps the
	// steady-state allocation rate — and with it the GC tax — low.
	pool map[string]*Relation

	// removedBuf is the reusable buffer for Relation.removeInto results; its
	// contents are consumed before the next removal.
	removedBuf []Fact

	// broken poisons the maintainer after a failed batch whose recovery
	// recomputation also failed: the database state is no longer trusted.
	broken error
}

// NewMaintainer runs the initial fixpoint (saturating db in place) and
// returns a maintenance handle. Unlike NewIncremental it accepts any program
// the engine accepts: programs outside the incremental class are maintained
// by transparent full recomputation.
func NewMaintainer(prog *Program, db *Database, opts Options) (*Maintainer, error) {
	return NewMaintainerCtx(context.Background(), prog, db, opts)
}

// NewMaintainerCtx is NewMaintainer under a context covering the initial
// fixpoint. Options are sanitized for maintenance: Trace and Provenance are
// disabled (the internal DRed phases would pollute both) and OnFault is
// forced to fail-fast (a salvaged partial stratum has no maintenance
// semantics). Workers, MaxRounds, MaxFacts and Timeout apply per phase.
func NewMaintainerCtx(ctx context.Context, prog *Program, db *Database, opts Options) (*Maintainer, error) {
	opts.Trace = nil
	opts.Provenance = false
	opts.OnFault = FailFast
	opts.OwnInput = false
	if db.frozen {
		// The maintainer saturates and retracts in place; a frozen database
		// is shared state it must not touch.
		return nil, ErrFrozen
	}

	m := &Maintainer{prog: prog, db: db, opts: opts, edb: map[string]*Relation{}, pool: map[string]*Relation{}}
	for pred := range db.rels {
		// Relations a Layer shares become private: maintenance retracts
		// from them in place.
		db.own(pred)
	}
	for pred, rel := range db.rels {
		if rel.Len() == 0 {
			continue
		}
		er := NewRelation(rel.Arity)
		for _, f := range rel.All() {
			if _, err := er.Insert(f); err != nil {
				return nil, err
			}
		}
		m.edb[pred] = er
	}
	if _, err := RunInPlaceCtx(ctx, prog, db, opts); err != nil {
		return nil, err
	}
	m.unsupported = dredClass(prog)
	if m.unsupported == "" {
		for _, p := range []struct {
			dst  **maintProg
			prog *Program
		}{
			{&m.delProg, buildDeletionProgram(prog)},
			{&m.candProg, buildRederivationProgram(prog)},
			{&m.insProg, buildInsertionProgram(prog)},
		} {
			mp, err := newMaintProg(p.prog)
			if err != nil {
				return nil, err
			}
			*p.dst = mp
		}
	}
	return m, nil
}

// maintProg is one derived maintenance program together with its analysis
// and the arities of its private shadow predicates, computed once at
// maintainer construction and reused by every batch.
type maintProg struct {
	prog  *Program
	an    *Analysis
	rules []*cRule

	// scratch is this program's reusable shadow database; shadowFor clears
	// and repopulates it each batch so the map buckets persist.
	scratch *Database

	// shadow maps every del·/cand·/ins· predicate the program mentions to
	// its arity, so Apply can register pooled relations for them before an
	// engine run creates throwaway ones.
	shadow map[string]int
}

func newMaintProg(prog *Program) (*maintProg, error) {
	an, err := Analyze(prog)
	if err != nil {
		return nil, err
	}
	rules := make([]*cRule, len(prog.Rules))
	for i := range prog.Rules {
		if rules[i], err = compileProgRule(prog, i); err != nil {
			return nil, err
		}
	}
	shadow := map[string]int{}
	note := func(a Atom) {
		if strings.HasPrefix(a.Pred, delPrefix) ||
			strings.HasPrefix(a.Pred, candPrefix) ||
			strings.HasPrefix(a.Pred, insPrefix) {
			shadow[a.Pred] = len(a.Args)
		}
	}
	for _, r := range prog.Rules {
		for _, h := range r.Head {
			note(h)
		}
		for _, l := range r.Body {
			if l.Kind == LitAtom || l.Kind == LitNegAtom {
				note(l.Atom)
			}
		}
	}
	return &maintProg{prog: prog, an: an, rules: rules, shadow: shadow}, nil
}

// shadowFor builds the scratch database for one maintenance run: the live
// relations shared by pointer, plus this program's private shadow relations
// drawn from the maintainer's pool (reset, with their capacity intact).
func (m *Maintainer) shadowFor(mp *maintProg) *Database {
	if mp.scratch == nil {
		mp.scratch = &Database{rels: make(map[string]*Relation, len(m.db.rels)+len(mp.shadow)+8)}
	}
	sc := mp.scratch
	clear(sc.rels)
	for pred, r := range m.db.rels {
		sc.rels[pred] = r
	}
	for pred, arity := range mp.shadow {
		sc.rels[pred] = m.pooledRelation(pred, arity)
	}
	return sc
}

// pooledRelation returns the pool's relation for a shadow predicate, reset
// for reuse; on first use it creates one with fact-slot recycling enabled,
// which is safe here because shadow facts never outlive the batch.
func (m *Maintainer) pooledRelation(pred string, arity int) *Relation {
	if r := m.pool[pred]; r != nil {
		r.Reset() //nolint:errcheck // pooled relations are private, never frozen
		return r
	}
	r := NewRelation(arity)
	r.recycle = true
	m.pool[pred] = r
	return r
}

// DB returns the maintained database. The pointer stays valid across Apply
// calls (fallback recomputation swaps its contents, not the pointer), but
// *Relation handles taken from it may be replaced by a batch.
func (m *Maintainer) DB() *Database { return m.db }

// Incremental reports whether batches take the incremental path; when false,
// Unsupported names the program feature that forces full recomputation.
func (m *Maintainer) Incremental() bool { return m.unsupported == "" }

// Unsupported names the feature outside the incremental class, or "".
func (m *Maintainer) Unsupported() string { return m.unsupported }

// AssertedFacts returns the currently asserted extensional facts of a
// predicate, in assertion order. The slice is shared; do not modify.
func (m *Maintainer) AssertedFacts(pred string) []Fact {
	if er := m.edb[pred]; er != nil {
		return er.All()
	}
	return nil
}

// dredClass names the program feature outside the DRed-incremental class, or
// returns "" for supported programs.
func dredClass(p *Program) string {
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.Kind == LitNegAtom {
				return "stratified negation"
			}
			if l.Kind == LitExpr && l.Expr.findAggregate() != nil {
				return "aggregation"
			}
		}
		if len(r.ExistentialVars()) > 0 {
			return "existential head variables"
		}
	}
	return ""
}

// assignTargets collects the variables assigned by expression literals of a
// rule. The set is positional-context-free on purpose: a variable that is a
// target anywhere in the body is treated as hazardous for reordering.
func assignTargets(r Rule) map[string]bool {
	out := map[string]bool{}
	for _, l := range r.Body {
		if l.Kind == LitExpr {
			if v, ok := l.Expr.assignTarget(); ok {
				out[v] = true
			}
		}
	}
	return out
}

// buildDeletionProgram derives the over-deletion program: one variant per
// rule per positive body atom occurrence, heads prefixed with del·.
func buildDeletionProgram(p *Program) *Program {
	out := &Program{}
	for _, r := range p.Rules {
		if len(r.Body) == 0 {
			continue // fact rules have no deletable body support
		}
		targets := assignTargets(r)
		for i, l := range r.Body {
			if l.Kind != LitAtom {
				continue
			}
			delAtom := Atom{Pred: delPred(l.Atom.Pred), Args: l.Atom.Args}
			frontable := true
			for _, v := range l.Atom.Vars() {
				if targets[v] {
					frontable = false
					break
				}
			}
			var body []Literal
			if frontable {
				body = make([]Literal, 0, len(r.Body))
				body = append(body, Literal{Kind: LitAtom, Atom: delAtom})
				for j, bl := range r.Body {
					if j != i {
						body = append(body, bl)
					}
				}
			} else {
				body = append([]Literal(nil), r.Body...)
				body[i] = Literal{Kind: LitAtom, Atom: delAtom}
			}
			heads := make([]Atom, len(r.Head))
			for hi, h := range r.Head {
				heads[hi] = Atom{Pred: delPred(h.Pred), Args: h.Args}
			}
			out.Rules = append(out.Rules, Rule{Head: heads, Body: body, Line: r.Line})
		}
	}
	return out
}

// buildInsertionProgram derives the delta-driven insertion program: one
// variant per rule per positive body atom occurrence, with the triggering
// occurrence read from its ins· delta relation and front-loaded when no
// variable of the atom is an assignment target (the same reordering hazard
// as the deletion program). Every variant heads into both the original
// predicate and its ins· shadow, so each round's derivations become the next
// round's delta: semi-naive evaluation expressed as a program transformation
// over the unmodified engine. The shadows accumulate for the lifetime of one
// batch, which re-joins earlier rounds' facts in later rounds — wasteful for
// large deltas, but batch deltas are orders of magnitude smaller than the
// relations they join against, and front-loading them is what keeps a batch
// from scanning the full database (the engine traverses rule bodies
// left-to-right).
func buildInsertionProgram(p *Program) *Program {
	out := &Program{}
	for _, r := range p.Rules {
		if len(r.Body) == 0 {
			continue // fact rules are saturated by the initial fixpoint
		}
		targets := assignTargets(r)
		for i, l := range r.Body {
			if l.Kind != LitAtom {
				continue
			}
			insAtom := Atom{Pred: insPred(l.Atom.Pred), Args: l.Atom.Args}
			frontable := true
			for _, v := range l.Atom.Vars() {
				if targets[v] {
					frontable = false
					break
				}
			}
			var body []Literal
			if frontable {
				body = make([]Literal, 0, len(r.Body))
				body = append(body, Literal{Kind: LitAtom, Atom: insAtom})
				for j, bl := range r.Body {
					if j != i {
						body = append(body, bl)
					}
				}
			} else {
				body = append([]Literal(nil), r.Body...)
				body[i] = Literal{Kind: LitAtom, Atom: insAtom}
			}
			heads := make([]Atom, 0, len(r.Head)*2)
			for _, h := range r.Head {
				heads = append(heads, h, Atom{Pred: insPred(h.Pred), Args: h.Args})
			}
			out.Rules = append(out.Rules, Rule{Head: heads, Body: body, Line: r.Line})
		}
	}
	return out
}

// buildRederivationProgram derives the guarded re-derivation program: one
// cand·-guarded variant per head atom for guardable rules, the original rule
// verbatim otherwise.
func buildRederivationProgram(p *Program) *Program {
	out := &Program{}
	for _, r := range p.Rules {
		if len(r.Body) == 0 {
			out.Rules = append(out.Rules, r)
			continue
		}
		targets := assignTargets(r)
		guardable := true
		for _, h := range r.Head {
			for _, t := range h.Args {
				switch t := t.(type) {
				case Const:
				case Var:
					if targets[t.Name] {
						guardable = false
					}
				default:
					guardable = false // Skolem terms cannot appear in bodies
				}
			}
		}
		if !guardable {
			out.Rules = append(out.Rules, r)
			continue
		}
		for _, h := range r.Head {
			guard := Literal{Kind: LitAtom, Atom: Atom{Pred: candPred(h.Pred), Args: h.Args}}
			body := make([]Literal, 0, len(r.Body)+1)
			body = append(body, guard)
			body = append(body, r.Body...)
			// The guard binds every variable of the guarded head, so one
			// witness re-derives the candidate; FirstMatchOnly stops the
			// traversal from enumerating the rest. Other heads of a
			// multi-head rule lose incidental emissions to the cut, but
			// those are redundant: a deleted fact of theirs is a candidate
			// with its own guarded variant, and an undeleted one needs no
			// re-derivation.
			out.Rules = append(out.Rules, Rule{
				Head: r.Head, Body: body, Line: r.Line, FirstMatchOnly: true,
			})
		}
	}
	return out
}

// shadowDatabase returns a database sharing d's relation pointers, so a
// transformed program can read (and, in the re-derivation phase, extend) the
// live relations while keeping its del·/cand· relations private.
func shadowDatabase(d *Database) *Database {
	out := &Database{rels: make(map[string]*Relation, len(d.rels)+8)}
	for pred, r := range d.rels {
		out.rels[pred] = r
	}
	return out
}

// predFact pairs a predicate with one fact, the unit of batch application.
type predFact struct {
	pred string
	f    Fact
}

// Apply applies one batch; see ApplyCtx.
func (m *Maintainer) Apply(d Delta) (DeltaStats, error) {
	return m.ApplyCtx(context.Background(), d)
}

// ApplyCtx applies one batch of extensional changes, deletions first, and
// leaves the database saturated. On any error the batch is rolled back by
// recomputing the database from the maintained extensional store, so a
// failed Apply leaves the maintained state exactly as before the call; if
// that recovery itself fails the maintainer is poisoned and every later
// Apply returns the poisoning error.
func (m *Maintainer) ApplyCtx(ctx context.Context, d Delta) (DeltaStats, error) {
	var stats DeltaStats
	if m.broken != nil {
		return stats, m.broken
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	dels, adds, err := m.validate(d)
	if err != nil {
		return stats, err
	}
	if len(dels) == 0 && len(adds) == 0 {
		stats.Duration = time.Since(start)
		return stats, nil
	}

	// Commit the batch to the extensional store up front; everything below
	// is derived state that recovery can rebuild from it.
	undoDel := m.retractEDB(dels)
	undoAdd := m.assertEDB(adds)

	err = fault.Guard(siteDelta, func() error {
		if err := fault.Hit(siteDelta); err != nil {
			return err
		}
		if m.unsupported != "" {
			stats.Recomputed = true
			stats.Deleted = len(undoDel)
			stats.Added = len(undoAdd)
			return m.recompute(ctx)
		}
		if len(undoDel) > 0 {
			if err := m.applyDeletions(ctx, undoDel, &stats); err != nil {
				return err
			}
		}
		if err := fault.Hit(siteDelta); err != nil {
			return err
		}
		if len(adds) > 0 {
			if err := m.applyAdditions(ctx, adds, &stats); err != nil {
				return err
			}
		}
		return fault.Hit(siteDelta)
	})
	if err != nil {
		m.rollback(undoDel, undoAdd, stats.Recomputed || batchTouchedDB(&stats))
		stats = DeltaStats{Duration: time.Since(start)}
		if m.broken != nil {
			return stats, fmt.Errorf("%w (additionally, recovery failed: %v)", err, m.broken)
		}
		return stats, err
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// batchTouchedDB reports whether a failed batch may have mutated the
// derived database (as opposed to failing before any db write).
func batchTouchedDB(stats *DeltaStats) bool {
	return stats.Added > 0 || stats.OverDeleted > 0 || stats.Rederived > 0
}

// validate checks the whole batch before anything mutates: predicates and
// arities must be consistent, and every retraction must name a currently
// asserted fact. The returned slices are ordered deterministically (sorted
// predicate, then the caller's per-predicate order).
func (m *Maintainer) validate(d Delta) (dels, adds []predFact, err error) {
	delPreds := sortedKeys(d.Del)
	for _, pred := range delPreds {
		er := m.edb[pred]
		for _, f := range d.Del[pred] {
			if er == nil || !er.Contains(f) {
				return nil, nil, fmt.Errorf("vadalog: delta retracts %s%s, which is not an asserted fact", pred, f)
			}
			dels = append(dels, predFact{pred, f})
		}
	}
	addPreds := sortedKeys(d.Add)
	for _, pred := range addPreds {
		arity := -1
		if rel := m.db.Relation(pred); rel != nil {
			arity = rel.Arity
		} else if er := m.edb[pred]; er != nil {
			arity = er.Arity
		}
		for _, f := range d.Add[pred] {
			if arity >= 0 && len(f) != arity {
				return nil, nil, fmt.Errorf("vadalog: delta asserts %s%s with arity %d, want %d", pred, f, len(f), arity)
			}
			if arity < 0 {
				arity = len(f)
			}
			adds = append(adds, predFact{pred, f})
		}
	}
	return dels, adds, nil
}

func sortedKeys(m map[string][]Fact) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// retractEDB removes the batch deletions from the extensional store and
// returns the facts actually retracted (deduplicated).
func (m *Maintainer) retractEDB(dels []predFact) []predFact {
	var out []predFact
	byPred := map[string][]Fact{}
	var order []string
	for _, d := range dels {
		if _, ok := byPred[d.pred]; !ok {
			order = append(order, d.pred)
		}
		byPred[d.pred] = append(byPred[d.pred], d.f)
	}
	for _, pred := range order {
		removed, _ := m.edb[pred].Remove(byPred[pred]) // the store is private, never frozen
		for _, f := range removed {
			out = append(out, predFact{pred, f})
		}
	}
	return out
}

// assertEDB adds the batch insertions to the extensional store and returns
// the facts that were newly asserted.
func (m *Maintainer) assertEDB(adds []predFact) []predFact {
	var out []predFact
	for _, a := range adds {
		er := m.edb[a.pred]
		if er == nil {
			er = NewRelation(len(a.f))
			m.edb[a.pred] = er
		}
		if ok, _ := er.Insert(a.f); ok {
			out = append(out, predFact{a.pred, a.f})
		}
	}
	return out
}

// rollback reverts the extensional store to its pre-batch state and, when
// the derived database may have been touched, recomputes it from scratch
// under a background context (the batch's cancellation must not strand the
// database mid-rollback). A failed recomputation poisons the maintainer.
func (m *Maintainer) rollback(undoDel, undoAdd []predFact, dbDirty bool) {
	for _, a := range undoAdd {
		er := m.edb[a.pred]
		er.Remove([]Fact{a.f}) //nolint:errcheck // the store is private, never frozen
		if er.Len() == 0 {
			delete(m.edb, a.pred) // drop relations the batch itself introduced
		}
	}
	for _, d := range undoDel {
		er := m.edb[d.pred]
		if er == nil {
			er = NewRelation(len(d.f))
			m.edb[d.pred] = er
		}
		if _, err := er.Insert(d.f); err != nil {
			m.broken = fmt.Errorf("vadalog: maintainer rollback failed: %w", err)
			return
		}
	}
	if !dbDirty {
		return
	}
	opts := m.opts
	opts.Timeout = 0
	if err := m.recomputeWith(context.Background(), opts); err != nil {
		m.broken = fmt.Errorf("vadalog: maintainer recovery recomputation failed: %w", err)
	}
}

// recompute rebuilds the derived database from the extensional store.
func (m *Maintainer) recompute(ctx context.Context) error {
	return m.recomputeWith(ctx, m.opts)
}

func (m *Maintainer) recomputeWith(ctx context.Context, opts Options) error {
	fresh := NewDatabase()
	for pred, er := range m.edb {
		nr := NewRelation(er.Arity)
		for _, f := range er.All() {
			if _, err := nr.Insert(f); err != nil {
				return err
			}
		}
		fresh.rels[pred] = nr
	}
	if _, err := RunInPlaceCtx(ctx, m.prog, fresh, opts); err != nil {
		return err
	}
	m.db.rels = fresh.rels
	return nil
}

// applyDeletions runs the two DRed phases for the batch retractions.
func (m *Maintainer) applyDeletions(ctx context.Context, dels []predFact, stats *DeltaStats) error {
	// Phase 1 — over-delete on a shadow of the (pre-deletion) live database.
	scratch := m.shadowFor(m.delProg)
	for _, d := range dels {
		rel, err := scratch.EnsureRelation(delPred(d.pred), len(d.f))
		if err != nil {
			return err
		}
		if _, err := rel.Insert(d.f); err != nil {
			return err
		}
	}
	if err := m.runProgram(ctx, m.delProg, scratch, nil); err != nil {
		return err
	}

	// Retract Δ⁻ from the live relations; re-assert what is still
	// extensionally supported, collect the rest as candidates.
	var delRels []string
	for pred := range scratch.rels {
		if strings.HasPrefix(pred, delPrefix) && scratch.rels[pred].Len() > 0 {
			delRels = append(delRels, pred)
		}
	}
	sort.Strings(delRels)
	gross, reasserted := 0, 0
	var cands []predFact
	for _, dp := range delRels {
		pred := strings.TrimPrefix(dp, delPrefix)
		rel := m.db.Relation(pred)
		if rel == nil {
			continue
		}
		var err error
		if m.removedBuf, err = rel.removeInto(m.removedBuf[:0], scratch.rels[dp].All()); err != nil {
			return err
		}
		removed := m.removedBuf
		gross += len(removed)
		er := m.edb[pred]
		for _, f := range removed {
			if er != nil && er.Contains(f) {
				if ok, err := rel.Insert(f); err != nil {
					return err
				} else if ok {
					reasserted++
				}
				continue
			}
			cands = append(cands, predFact{pred, f})
		}
	}
	stats.OverDeleted += gross

	// Phase 2 — guarded re-derivation of the candidates.
	rederived := 0
	if len(cands) > 0 && len(m.candProg.prog.Rules) > 0 {
		scratch2 := m.shadowFor(m.candProg)
		seedRels := map[string]*Relation{}
		for _, c := range cands {
			rel := seedRels[c.pred]
			if rel == nil {
				var err error
				if rel, err = scratch2.EnsureRelation(candPred(c.pred), len(c.f)); err != nil {
					return err
				}
				seedRels[c.pred] = rel
			}
			if _, err := rel.Insert(c.f); err != nil {
				return err
			}
		}
		if err := m.runProgram(ctx, m.candProg, scratch2, &rederived); err != nil {
			return err
		}
	}
	stats.Rederived += rederived
	stats.Deleted += gross - reasserted - rederived
	return nil
}

// applyAdditions inserts the batch assertions and saturates their
// consequences by running the ins·-transformed program over a shadow of the
// live database: the new facts seed private ins· delta relations, every
// variant rule is driven by one of them (front-loaded, so the engine never
// scans a full base relation), and derivations extend the shared live
// relations directly.
func (m *Maintainer) applyAdditions(ctx context.Context, adds []predFact, stats *DeltaStats) error {
	before := make(map[string]int, len(m.db.rels))
	for pred, rel := range m.db.rels {
		before[pred] = rel.Len()
	}
	scratch := m.shadowFor(m.insProg)
	for _, a := range adds {
		rel, err := m.db.EnsureRelation(a.pred, len(a.f))
		if err != nil {
			return err
		}
		ok, err := rel.Insert(a.f)
		if err != nil {
			return err
		}
		if !ok {
			continue // already present: not a delta
		}
		ins, err := scratch.EnsureRelation(insPred(a.pred), len(a.f))
		if err != nil {
			return err
		}
		if _, err := ins.Insert(a.f); err != nil {
			return err
		}
	}
	if err := m.runProgram(ctx, m.insProg, scratch, nil); err != nil {
		return err
	}
	// The engine's own derived count includes the ins· shadows, so Added is
	// measured as the growth of the real relations instead. A relation the
	// run created for a predicate that had never held a fact before lives
	// only in the shadow map and is adopted here.
	for pred, rel := range scratch.rels {
		if strings.HasPrefix(pred, insPrefix) || m.db.rels[pred] != nil {
			continue
		}
		m.db.rels[pred] = rel
	}
	for pred, rel := range m.db.rels {
		stats.Added += rel.Len() - before[pred]
	}
	return nil
}

// runProgram evaluates one transformed DRed program over a shadow database.
// When derived is non-nil it receives the number of facts the run inserted.
func (m *Maintainer) runProgram(ctx context.Context, mp *maintProg, db *Database, derived *int) error {
	if len(mp.prog.Rules) == 0 {
		return nil
	}
	e, err := newEngineAnalyzed(ctx, mp.prog, mp.an, db, m.opts, mp.rules)
	if err != nil {
		return err
	}
	e.startPool()
	runErr := e.run()
	e.stopPool()
	e.release()
	if derived != nil {
		*derived = e.derived
	}
	return canonicalRunErr(runErr)
}
