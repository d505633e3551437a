package vadalog

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/value"
)

// Options configures a reasoning run.
type Options struct {
	// RequireWarded rejects programs that fail the wardedness check instead
	// of merely reporting the violation in the analysis.
	RequireWarded bool
	// MaxRounds bounds the number of fixpoint rounds per stratum, as a
	// safety valve against non-terminating chases. 0 means the default.
	MaxRounds int
	// MaxFacts bounds the total number of derived facts. 0 means unlimited.
	MaxFacts int
	// Naive disables semi-naive delta evaluation: every fixpoint round
	// re-evaluates every rule against the full relations. Exists for the
	// evaluation-strategy ablation benchmarks; always slower.
	Naive bool
	// Provenance records, for every derived fact, the rule and body facts of
	// its first derivation, enabling Result.Explain. Costs memory
	// proportional to the derived facts. Provenance tracks the *first*
	// derivation, which only insertion order makes well-defined, so a
	// provenance run evaluates every rule sequentially even when Workers
	// asks for parallelism.
	Provenance bool
	// Timeout bounds the wall-clock duration of the run. When it expires the
	// engine stops cooperatively at the next round or shard boundary and
	// returns ErrTimeout together with the partial result. 0 means no bound.
	// The timeout composes with any deadline already on the context passed to
	// RunCtx/RunInPlaceCtx; whichever expires first wins.
	Timeout time.Duration
	// Trace, when non-nil, receives the observability trace of the run: one
	// obs.RunTrace with per-rule counters (evaluations, firings, derived
	// facts, join probes, wall time), per-round delta sizes, and the outcome.
	// Everything but the wall times is deterministic and worker-count
	// independent; obs.Trace.WriteJSON serializes exactly that subset.
	Trace *obs.Trace
	// OnFault selects the failure policy of the run: FailFast (default)
	// returns the first stratum failure as-is; BestEffort wraps it in a
	// *PartialError so callers can salvage the strata that completed. See
	// FaultPolicy.
	OnFault FaultPolicy
	// OwnInput declares that the caller hands a private input database over
	// to the run and will not read or reuse it afterwards. Run/RunCtx then
	// skip the defensive Clone of the input and saturate it directly,
	// exactly like RunInPlace — the right call for load-once pipelines
	// (CLIs, one-shot queries) where the clone is pure overhead. Leave it
	// false when the same private database feeds several runs, as the
	// comparative benchmarks do. A frozen input (Database.Freeze) is never
	// cloned nor written whatever OwnInput says: the run evaluates over a
	// copy-on-write Layer of it, which is how one shared fact base serves
	// many concurrent queries.
	OwnInput bool
	// Workers sets the number of goroutines used to evaluate each rule.
	// Values <= 1 select the sequential engine. With Workers >= 2, the
	// driver window of every shardable rule is partitioned into shards
	// evaluated concurrently on a worker pool; emitted facts are buffered
	// per shard and merged deterministically (see parallel.go), so the
	// derived fact set is identical for every worker count. Programs with
	// monotonic aggregates always evaluate sequentially: running emissions
	// depend on contribution order, which no merge discipline preserves.
	Workers int
}

const defaultMaxRounds = 1 << 20

// ErrCanceled and ErrTimeout are the typed interruption errors of a run.
// Both are detected cooperatively at round and shard boundaries, and both
// come back alongside a non-nil partial Result whose Stats (and DB) reflect
// the work completed before the interruption. Match with errors.Is.
var (
	// ErrCanceled reports that the context passed to RunCtx/RunInPlaceCtx
	// (or PropagateCtx) was canceled.
	ErrCanceled = errors.New("vadalog: run canceled")
	// ErrTimeout reports that Options.Timeout — or a deadline already on the
	// caller's context — expired.
	ErrTimeout = errors.New("vadalog: run timed out")
)

// canonicalRunErr maps raw context errors surfacing from the evaluation
// stack onto the package's typed sentinels; other errors pass through.
func canonicalRunErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrCanceled) || errors.Is(err, ErrTimeout):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		return ErrTimeout
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	default:
		return err
	}
}

// statusOf classifies a run error for the trace outcome and the process-wide
// counters.
func statusOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

// RunStats summarizes a reasoning run.
type RunStats struct {
	Rounds       int
	FactsDerived int
	Duration     time.Duration
}

// Result is the outcome of a reasoning run: the saturated database Σ(D), the
// static analysis, and run statistics. When the run recorded provenance,
// Explain reconstructs proof trees for derived facts.
type Result struct {
	DB       *Database
	Analysis *Analysis
	Stats    RunStats

	prov map[string]derivation
}

// Output returns the derived facts for a predicate in deterministic order.
func (r *Result) Output(pred string) []Fact { return r.DB.SortedFacts(pred) }

// Run executes the program over the input database and returns the saturated
// result. The input database is not modified unless Options.OwnInput
// transfers it to the run; a frozen input is never modified.
func Run(prog *Program, input *Database, opts Options) (*Result, error) {
	return RunCtx(context.Background(), prog, input, opts)
}

// RunCtx is Run under a context: the run stops cooperatively at the next
// round or shard boundary once ctx is canceled (ErrCanceled) or its deadline
// — or Options.Timeout — expires (ErrTimeout). On interruption the returned
// Result is non-nil and carries the partial statistics and database.
//
// A frozen input is shared, not copied: the run evaluates over a Layer of
// it, and Result.DB is that layer. A private input is cloned so the caller's
// database survives the run untouched; Options.OwnInput skips that copy for
// callers that hand the database over.
func RunCtx(ctx context.Context, prog *Program, input *Database, opts Options) (*Result, error) {
	if !opts.OwnInput && !input.frozen {
		input = input.Clone()
	}
	return RunInPlaceCtx(ctx, prog, input, opts)
}

// RunInPlace is Run but saturates the given database directly, avoiding the
// copy. A private database is extended with the derived facts; a frozen one
// is left as it is, and the run saturates a Layer over it instead (returned
// as Result.DB).
func RunInPlace(prog *Program, db *Database, opts Options) (*Result, error) {
	return RunInPlaceCtx(context.Background(), prog, db, opts)
}

// RunInPlaceCtx is RunInPlace under a context (see RunCtx).
func RunInPlaceCtx(ctx context.Context, prog *Program, db *Database, opts Options) (*Result, error) {
	e, err := newEngine(ctx, prog, db, opts)
	if err != nil {
		return nil, err
	}
	defer e.release()
	start := time.Now()
	e.startPool()
	err = e.run()
	e.stopPool()
	return e.finish(start, err)
}

// newEngine analyzes and compiles the program and builds an engine bound to
// ctx. The caller must invoke release (directly or via finish-completing
// wrappers) so any Options.Timeout timer is stopped.
func newEngine(ctx context.Context, prog *Program, db *Database, opts Options) (*engine, error) {
	an, err := Analyze(prog)
	if err != nil {
		return nil, err
	}
	return newEngineAnalyzed(ctx, prog, an, db, opts, nil)
}

// newEngineAnalyzed is newEngine for callers that already hold the program's
// analysis — the maintenance path runs the same three derived programs on
// every batch and re-analyzing them per Apply would dominate small batches.
// cached, when non-nil, supplies pre-compiled rules for the same program; it
// is only sound for aggregate-free programs evaluated one run at a time,
// because aggregate rules accumulate state in their compiled form.
func newEngineAnalyzed(ctx context.Context, prog *Program, an *Analysis, db *Database, opts Options, cached []*cRule) (*engine, error) {
	if opts.RequireWarded && !an.Warded {
		return nil, fmt.Errorf("vadalog: program is not warded: %s", strings.Join(an.Violations, "; "))
	}
	if db.frozen {
		db = db.Layer()
	}
	e := &engine{prog: prog, an: an, db: db, opts: opts, ctx: ctx, cachedRules: cached}
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	if opts.Timeout > 0 {
		e.ctx, e.ctxCancel = context.WithTimeout(e.ctx, opts.Timeout)
	}
	if e.opts.MaxRounds == 0 {
		e.opts.MaxRounds = defaultMaxRounds
	}
	if e.opts.Provenance {
		e.prov = map[string]derivation{}
	}
	if err := e.prepare(); err != nil {
		e.release()
		return nil, err
	}
	if opts.Trace != nil {
		e.trace = opts.Trace.StartRun()
		for _, cr := range e.rules {
			e.trace.DeclareRule(cr.idx, cr.rule.Line, ruleLabel(cr))
		}
	}
	return e, nil
}

// release stops the engine's own timeout timer, if any.
func (e *engine) release() {
	if e.ctxCancel != nil {
		e.ctxCancel()
		e.ctxCancel = nil
	}
}

// finish builds the Result from the engine state, canonicalizes interruption
// errors, and records the outcome in the trace and the process counters. The
// Result is non-nil even on error, so interrupted runs surface their partial
// statistics (and partially saturated database) next to the typed error.
func (e *engine) finish(start time.Time, err error) (*Result, error) {
	err = canonicalRunErr(err)
	stats := RunStats{Rounds: e.rounds, FactsDerived: e.derived, Duration: time.Since(start)}
	status := statusOf(err)
	if e.trace != nil {
		e.trace.Finish(status, stats.Rounds, stats.FactsDerived, stats.Duration)
	}
	obs.CountRun(status, stats.Rounds, stats.FactsDerived)
	return &Result{DB: e.db, Analysis: e.an, Stats: stats, prov: e.prov}, err
}

// ruleLabel names a rule by its head predicates.
func ruleLabel(cr *cRule) string {
	seen := map[string]bool{}
	var preds []string
	for _, h := range cr.heads {
		if !seen[h.pred] {
			seen[h.pred] = true
			preds = append(preds, h.pred)
		}
	}
	return strings.Join(preds, ",")
}

// engine holds the state of one reasoning run.
type engine struct {
	prog *Program
	an   *Analysis
	db   *Database
	opts Options
	// ctx carries the cancellation signal; checkCtx polls it at round and
	// shard boundaries. ctxCancel stops the Options.Timeout timer.
	ctx       context.Context
	ctxCancel context.CancelFunc
	// trace is this run's section of Options.Trace; nil disables recording.
	// curFirings/curProbes accumulate the counters of the evaluation in
	// flight (sequential directly, sharded after the merge barrier).
	trace      *obs.RunTrace
	curFirings int64
	curProbes  int64
	// pool is the worker pool for parallel rule evaluation; nil when the
	// run is sequential (Workers <= 1, or Provenance is on).
	pool *workerPool

	rules       []*cRule
	cachedRules []*cRule // pre-compiled rules to adopt instead of compiling
	rounds      int
	derived     int

	// headScratch is the reusable head-tuple buffer of the sequential emit
	// sink; parallel shards buffer emissions per shard instead and never
	// call emit.
	headScratch []value.Value

	// Provenance bookkeeping (Options.Provenance): the stack of body facts
	// matched by the evaluation in progress, and the first derivation of
	// every derived fact.
	parentStack []parentRef
	inStratAgg  bool
	prov        map[string]derivation
}

type stepKind uint8

const (
	stepJoin stepKind = iota
	stepNeg
	stepCond
	stepAssign
	stepAgg
)

// cStep is a compiled body literal.
type cStep struct {
	kind stepKind
	pred string

	// For join/neg steps: per-position description of the atom arguments.
	argConst []value.Value // constant at position, or zero Value
	argSlot  []int         // variable slot at position, or -1 for constants
	// binderPos are positions whose variable is first bound by this step;
	// checkPos are positions repeating a variable bound earlier in the same
	// step (p(X,X) with X fresh).
	binderPos []int
	checkPos  []int
	// staticMask/staticKey cover positions bound before this step begins
	// (constants and variables bound by earlier steps).
	staticMask     uint64
	staticKeySlots []int         // slots in position order, -1 for const
	staticKeyConst []value.Value // const per masked position (when slot -1)

	expr       *Expr
	assignSlot int // stepAssign: target slot; -1 when the expr is a condition

	agg          *Aggregate
	aggMonotonic bool
}

// cHeadArg describes one head atom argument.
type cHeadArg struct {
	kind    headArgKind
	cval    value.Value
	slot    int
	exName  string     // existential variable
	functor string     // explicit Skolem functor
	skArgs  []cHeadArg // Skolem arguments (const or slot only)
}

type headArgKind uint8

const (
	headConst headArgKind = iota
	headSlot
	headExist
	headSkolem
)

type cHead struct {
	pred string
	args []cHeadArg
}

// aggAccum is the accumulator of one aggregate group.
type aggAccum struct {
	seen  map[string]bool
	sum   float64
	prod  float64
	count int64
	min   value.Value
	max   value.Value
	// packItems collects name=value pairs for pack.
	packItems []string
	// groupVals keeps the group variable values for stratified emission.
	groupVals []value.Value
	allInts   bool
}

func newAggAccum() *aggAccum {
	return &aggAccum{seen: map[string]bool{}, prod: 1, allInts: true}
}

func (a *aggAccum) update(op string, v value.Value, v2 value.Value) error {
	switch op {
	case "count":
		a.count++
	case "sum", "avg":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("vadalog: %s over non-numeric value %s", op, v)
		}
		if v.K != value.Int {
			a.allInts = false
		}
		a.sum += f
		a.count++
	case "prod":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("vadalog: prod over non-numeric value %s", v)
		}
		if v.K != value.Int {
			a.allInts = false
		}
		a.prod *= f
		a.count++
	case "min":
		if a.count == 0 || value.Compare(v, a.min) < 0 {
			a.min = v
		}
		a.count++
	case "max":
		if a.count == 0 || value.Compare(v, a.max) > 0 {
			a.max = v
		}
		a.count++
	case "pack":
		a.packItems = append(a.packItems, v.String()+"="+v2.String())
		a.count++
	default:
		return fmt.Errorf("vadalog: unknown aggregate %q", op)
	}
	return nil
}

func (a *aggAccum) current(op string) value.Value {
	switch op {
	case "count":
		return value.IntV(a.count)
	case "sum":
		if a.allInts {
			return value.IntV(int64(a.sum))
		}
		return value.FloatV(a.sum)
	case "avg":
		if a.count == 0 {
			return value.FloatV(0)
		}
		return value.FloatV(a.sum / float64(a.count))
	case "prod":
		if a.allInts {
			return value.IntV(int64(a.prod))
		}
		return value.FloatV(a.prod)
	case "min":
		return a.min
	case "max":
		return a.max
	case "pack":
		items := append([]string(nil), a.packItems...)
		sort.Strings(items)
		return value.Str(strings.Join(items, "|"))
	default:
		return value.Value{}
	}
}

// cRule is a compiled rule with its evaluation plan.
type cRule struct {
	idx   int
	rule  Rule
	slots map[string]int
	steps []cStep
	heads []cHead

	// existFunctors maps each existential head variable to its generated
	// Skolem functor name; frontierSlots are the universal head variable
	// slots, in sorted name order, used as Skolem arguments.
	existNames    []string
	existFunctors map[string]string
	frontierSlots []int

	aggStep    int // index into steps of the aggregate assignment, or -1
	stratAgg   bool
	groupSlots []int // slots of the grouping variables (stratified + monotonic)
	aggState   map[string]*aggAccum

	// touchesGrow reports whether any body atom reads a predicate that grows
	// during this rule's stratum fixpoint; growOccs are the indices of such
	// join steps.
	growOccs []int
}

// slotEnv adapts the slot array to the expression Env interface.
type slotEnv struct {
	slots []value.Value
	names map[string]int
}

func (s slotEnv) Lookup(name string) (value.Value, bool) {
	i, ok := s.names[name]
	if !ok {
		return value.Value{}, false
	}
	v := s.slots[i]
	return v, !v.IsZero()
}

// prepare validates arities, creates relations for every predicate, makes
// the relations the program writes private, and compiles all rules.
func (e *engine) prepare() error {
	arities := map[string]int{}
	note := func(pred string, n int, line int) error {
		if prev, ok := arities[pred]; ok && prev != n {
			return fmt.Errorf("vadalog: line %d: predicate %s used with arity %d and %d", line, pred, n, prev)
		}
		arities[pred] = n
		return nil
	}
	for _, r := range e.prog.Rules {
		for _, h := range r.Head {
			if err := note(h.Pred, len(h.Args), r.Line); err != nil {
				return err
			}
		}
		for _, l := range r.Body {
			if l.Kind == LitAtom || l.Kind == LitNegAtom {
				if err := note(l.Atom.Pred, len(l.Atom.Args), r.Line); err != nil {
					return err
				}
			}
		}
	}
	for pred, n := range arities {
		if rel := e.db.Relation(pred); rel != nil {
			if rel.Arity != n {
				return fmt.Errorf("vadalog: predicate %s has arity %d in program but %d in database", pred, n, rel.Arity)
			}
			continue
		}
		if _, err := e.db.EnsureRelation(pred, n); err != nil {
			return err
		}
	}
	// Copy-on-write, decided once per run: a head relation a Layer shares
	// with a frozen base is copied into the layer before the fixpoint
	// writes it. Every other relation stays shared, and its probes read the
	// base's lazily built, generation-long indexes.
	for _, r := range e.prog.Rules {
		for _, h := range r.Head {
			e.db.own(h.Pred)
		}
	}
	if e.cachedRules != nil {
		e.rules = e.cachedRules
		return nil
	}
	for i := range e.prog.Rules {
		cr, err := compileProgRule(e.prog, i)
		if err != nil {
			return err
		}
		e.rules = append(e.rules, cr)
	}
	return nil
}

// compileProgRule compiles one rule of the program. The result depends only
// on the program text, so callers that re-run the same program (the
// maintenance path) compile once and reuse.
func compileProgRule(prog *Program, idx int) (*cRule, error) {
	r := prog.Rules[idx]
	cr := &cRule{idx: idx, rule: r, slots: map[string]int{}, aggStep: -1,
		existFunctors: map[string]string{}, aggState: map[string]*aggAccum{}}
	slotOf := func(name string) int {
		if s, ok := cr.slots[name]; ok {
			return s
		}
		s := len(cr.slots)
		cr.slots[name] = s
		return s
	}

	bound := map[string]bool{}
	for _, l := range r.Body {
		switch l.Kind {
		case LitAtom, LitNegAtom:
			st := cStep{kind: stepJoin, pred: l.Atom.Pred}
			if l.Kind == LitNegAtom {
				st.kind = stepNeg
			}
			n := len(l.Atom.Args)
			st.argConst = make([]value.Value, n)
			st.argSlot = make([]int, n)
			boundInStep := map[string]bool{}
			for i, t := range l.Atom.Args {
				switch t := t.(type) {
				case Const:
					st.argSlot[i] = -1
					st.argConst[i] = t.Value
					st.staticMask |= 1 << uint(i)
					st.staticKeySlots = append(st.staticKeySlots, -1)
					st.staticKeyConst = append(st.staticKeyConst, t.Value)
				case Var:
					slot := slotOf(t.Name)
					st.argSlot[i] = slot
					switch {
					case bound[t.Name]:
						st.staticMask |= 1 << uint(i)
						st.staticKeySlots = append(st.staticKeySlots, slot)
						st.staticKeyConst = append(st.staticKeyConst, value.Value{})
					case boundInStep[t.Name]:
						st.checkPos = append(st.checkPos, i)
					default:
						if l.Kind == LitNegAtom {
							// Anonymous variables in negated atoms act as
							// wildcards (checked by safety for named vars).
							continue
						}
						st.binderPos = append(st.binderPos, i)
						boundInStep[t.Name] = true
					}
				default:
					return nil, fmt.Errorf("vadalog: rule %d (line %d): Skolem terms are not allowed in bodies", idx, r.Line)
				}
			}
			if l.Kind == LitAtom {
				for name := range boundInStep {
					bound[name] = true
				}
			}
			cr.steps = append(cr.steps, st)
		case LitExpr:
			target, isAssign := l.Expr.assignTarget()
			if isAssign && !bound[target] {
				st := cStep{pred: "", expr: l.Expr.Right, assignSlot: slotOf(target)}
				if agg := l.Expr.findAggregate(); agg != nil {
					st.kind = stepAgg
					st.agg = agg
					st.aggMonotonic = agg.Monotonic()
					if cr.aggStep >= 0 {
						return nil, fmt.Errorf("vadalog: rule %d (line %d): multiple aggregates", idx, r.Line)
					}
					cr.aggStep = len(cr.steps)
					cr.stratAgg = !agg.Monotonic()
				} else {
					st.kind = stepAssign
				}
				bound[target] = true
				cr.steps = append(cr.steps, st)
			} else {
				cr.steps = append(cr.steps, cStep{kind: stepCond, expr: l.Expr, assignSlot: -1})
			}
		}
	}

	// Heads: resolve slots, existentials and Skolem functors.
	exVars := map[string]bool{}
	for _, v := range r.ExistentialVars() {
		exVars[v] = true
		cr.existNames = append(cr.existNames, v)
		cr.existFunctors[v] = fmt.Sprintf("ex_r%d_%s", idx, v)
	}
	sort.Strings(cr.existNames)
	// Frontier: universal head variables, sorted by name for determinism.
	var frontier []string
	for _, v := range r.HeadVars() {
		if !exVars[v] {
			frontier = append(frontier, v)
		}
	}
	sort.Strings(frontier)
	for _, v := range frontier {
		s, ok := cr.slots[v]
		if !ok {
			return nil, fmt.Errorf("vadalog: rule %d (line %d): head variable %s neither bound nor existential", idx, r.Line, v)
		}
		cr.frontierSlots = append(cr.frontierSlots, s)
	}

	var compileHeadArg func(t Term) (cHeadArg, error)
	compileHeadArg = func(t Term) (cHeadArg, error) {
		switch t := t.(type) {
		case Const:
			return cHeadArg{kind: headConst, cval: t.Value}, nil
		case Var:
			if exVars[t.Name] {
				return cHeadArg{kind: headExist, exName: t.Name}, nil
			}
			return cHeadArg{kind: headSlot, slot: cr.slots[t.Name]}, nil
		case SkolemTerm:
			ha := cHeadArg{kind: headSkolem, functor: t.Functor}
			for _, a := range t.Args {
				sub, err := compileHeadArg(a)
				if err != nil {
					return cHeadArg{}, err
				}
				if sub.kind == headExist || sub.kind == headSkolem {
					return cHeadArg{}, fmt.Errorf("vadalog: rule %d: Skolem arguments must be universal variables or constants", idx)
				}
				ha.skArgs = append(ha.skArgs, sub)
			}
			return ha, nil
		default:
			return cHeadArg{}, fmt.Errorf("vadalog: rule %d: unsupported head term", idx)
		}
	}
	for _, h := range r.Head {
		ch := cHead{pred: h.Pred}
		for _, t := range h.Args {
			ha, err := compileHeadArg(t)
			if err != nil {
				return nil, err
			}
			ch.args = append(ch.args, ha)
		}
		cr.heads = append(cr.heads, ch)
	}

	// Grouping variables for aggregates: head variables bound by the body,
	// excluding the aggregate target, in sorted name order.
	if cr.aggStep >= 0 {
		target := -1
		target = cr.steps[cr.aggStep].assignSlot
		groupNames := map[string]bool{}
		for _, v := range r.HeadVars() {
			if exVars[v] {
				continue
			}
			if s, ok := cr.slots[v]; ok && s != target {
				groupNames[v] = true
			}
		}
		var names []string
		for n := range groupNames {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			cr.groupSlots = append(cr.groupSlots, cr.slots[n])
		}
	}

	// Empty-body rules must be ground facts.
	if len(r.Body) == 0 {
		for _, h := range r.Head {
			for _, t := range h.Args {
				if _, ok := t.(Const); !ok {
					return nil, fmt.Errorf("vadalog: rule %d (line %d): facts must be ground", idx, r.Line)
				}
			}
		}
	}
	return cr, nil
}

// checkCtx polls the run context; it returns the raw context error, which
// finish later canonicalizes to ErrCanceled/ErrTimeout. Called at stratum,
// round and rule boundaries (shard boundaries poll inside runShards).
func (e *engine) checkCtx() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// run evaluates the program stratum by stratum. Each stratum runs under the
// fault guard and the OnFault policy (faultpolicy.go).
func (e *engine) run() error {
	for si, stratum := range e.an.Strata {
		if err := e.runGuarded(si, stratum); err != nil {
			return err
		}
	}
	return nil
}

func (e *engine) runStratum(stratumIdx int, ruleIdxs []int) error {
	if err := e.checkCtx(); err != nil {
		return err
	}
	// Predicates that grow during this stratum's fixpoint.
	grow := headPreds(e.prog, ruleIdxs)
	var fixpointRules []*cRule
	var stratAggRules []*cRule
	for _, ri := range ruleIdxs {
		cr := e.rules[ri]
		cr.growOccs = cr.growOccs[:0]
		for si, st := range cr.steps {
			if st.kind == stepJoin && grow[st.pred] {
				cr.growOccs = append(cr.growOccs, si)
			}
		}
		if cr.stratAgg {
			stratAggRules = append(stratAggRules, cr)
		} else {
			fixpointRules = append(fixpointRules, cr)
		}
	}

	// Stratified-aggregate rules read only lower strata; run them once,
	// before the fixpoint, so their results feed the stratum's other rules.
	for _, cr := range stratAggRules {
		if _, err := e.evalAgg(cr); err != nil {
			return err
		}
	}

	// Round 0: full evaluation of every rule.
	startLens := e.lens()
	total := 0
	for _, cr := range fixpointRules {
		n, err := e.eval(cr, fullWindows{})
		if err != nil {
			return err
		}
		total += n
	}
	if e.trace != nil {
		e.trace.AddRound(stratumIdx, 0, total)
	}
	if total == 0 {
		return nil
	}

	// Delta rounds (or full naive re-evaluation when requested).
	prev := startLens
	for round := 1; ; round++ {
		e.rounds++
		if err := e.checkCtx(); err != nil {
			return err
		}
		if round > e.opts.MaxRounds {
			return fmt.Errorf("vadalog: fixpoint did not converge within %d rounds", e.opts.MaxRounds)
		}
		cur := e.lens()
		inserted := 0
		for _, cr := range fixpointRules {
			if len(cr.growOccs) == 0 {
				continue
			}
			if e.opts.Naive {
				n, err := e.eval(cr, fullWindows{})
				if err != nil {
					return err
				}
				inserted += n
				continue
			}
			for _, occ := range cr.growOccs {
				w := deltaWindows{prev: prev, cur: cur, deltaStep: occ, growOccs: cr.growOccs}
				n, err := e.eval(cr, w)
				if err != nil {
					return err
				}
				inserted += n
			}
		}
		if e.trace != nil {
			e.trace.AddRound(stratumIdx, round, inserted)
		}
		if inserted == 0 {
			return nil
		}
		prev = cur
	}
}

// lens snapshots the current length of every relation.
func (e *engine) lens() map[string]int {
	out := make(map[string]int, len(e.db.rels))
	for pred, r := range e.db.rels {
		out[pred] = r.Len()
	}
	return out
}

// windows abstracts the fact windows visible to each join step of a rule
// evaluation variant.
type windows interface {
	// rangeFor returns the [lo,hi) fact positions visible at step si; hi of
	// -1 means "live" (all facts currently in the relation).
	rangeFor(si int, pred string) (int, int)
}

// fullWindows sees everything (round-0 and non-recursive evaluation).
type fullWindows struct{}

func (fullWindows) rangeFor(int, string) (int, int) { return 0, -1 }

// deltaWindows implements the standard semi-naive decomposition: the
// designated occurrence reads only the delta window, occurrences of growing
// predicates before it read the pre-delta prefix, later ones read everything.
type deltaWindows struct {
	prev, cur map[string]int
	deltaStep int
	growOccs  []int
}

func (w deltaWindows) rangeFor(si int, pred string) (int, int) {
	isGrow := false
	for _, o := range w.growOccs {
		if o == si {
			isGrow = true
			break
		}
	}
	if !isGrow {
		return 0, -1
	}
	switch {
	case si == w.deltaStep:
		return w.prev[pred], w.cur[pred]
	case si < w.deltaStep:
		return 0, w.prev[pred]
	default:
		return 0, -1
	}
}

// eval evaluates a rule under the given windows, fanning the driver window
// out to the worker pool when the run is parallel and the rule is shardable.
// The pool only exists at all for runs without provenance (whose "first
// derivation" needs a global insertion order) and without monotonic
// aggregates (whose running emissions are order-sensitive — see
// hasMonotonicAgg); stratified-aggregate rules take their own sharded path
// through evalStratifiedAgg.
func (e *engine) eval(cr *cRule, w windows) (int, error) {
	if err := e.checkCtx(); err != nil {
		return 0, err
	}
	if e.trace == nil {
		return e.evalDispatch(cr, w)
	}
	e.curFirings, e.curProbes = 0, 0
	start := time.Now()
	n, err := e.evalDispatch(cr, w)
	e.trace.AddEval(cr.idx, e.curFirings, int64(n), e.curProbes, time.Since(start))
	return n, err
}

// evalDispatch routes a rule evaluation to the sharded or sequential engine.
func (e *engine) evalDispatch(cr *cRule, w windows) (int, error) {
	if e.pool != nil && cr.aggStep < 0 && e.prov == nil {
		if driver := driverStep(cr, w); driver >= 0 {
			return e.evalRuleSharded(cr, w, driver)
		}
	}
	return e.evalRule(cr, w)
}

// evalAgg is the traced wrapper around evalStratifiedAgg, mirroring eval.
func (e *engine) evalAgg(cr *cRule) (int, error) {
	if err := e.checkCtx(); err != nil {
		return 0, err
	}
	if e.trace == nil {
		return e.evalStratifiedAgg(cr)
	}
	e.curFirings, e.curProbes = 0, 0
	start := time.Now()
	n, err := e.evalStratifiedAgg(cr)
	e.trace.AddEval(cr.idx, e.curFirings, int64(n), e.curProbes, time.Since(start))
	return n, err
}

// driverStep picks the join step whose window partitions the rule's work: the
// delta occurrence in semi-naive rounds, the first join otherwise. -1 means
// the rule enumerates nothing (fact rules) and is evaluated in place.
func driverStep(cr *cRule, w windows) int {
	if dw, ok := w.(deltaWindows); ok {
		return dw.deltaStep
	}
	for si := range cr.steps {
		if cr.steps[si].kind == stepJoin {
			return si
		}
	}
	return -1
}

// evalRule evaluates a rule sequentially under the given windows, returning
// the number of new facts inserted.
func (e *engine) evalRule(cr *cRule, w windows) (int, error) {
	inserted := 0
	c := &evalCtx{
		e: e, cr: cr, w: w,
		slots:     make([]value.Value, len(cr.slots)),
		limit:     len(cr.steps),
		shardStep: -1,
	}
	c.onMatch = func() error {
		n, err := e.emit(cr, c.slots)
		inserted += n
		return err
	}
	err := c.step(0)
	e.curFirings += c.firings
	e.curProbes += c.probes
	if err != nil {
		return 0, err
	}
	return inserted, nil
}

// evalCtx is one traversal of a rule body: a private slot array, the fact
// windows, an optional shard restriction on the driver step, and the sink
// invoked on every complete match. Sequential evaluation uses a single ctx
// whose sink inserts directly; parallel evaluation runs one ctx per shard
// with a buffering sink (parallel.go); stratified aggregation stops the
// traversal at the aggregate step and accumulates groups.
type evalCtx struct {
	e     *engine
	cr    *cRule
	w     windows
	slots []value.Value

	// limit is the step index where the traversal stops and onMatch fires:
	// len(cr.steps) for full rule evaluation, cr.aggStep for the collect
	// phase of stratified aggregation.
	limit int
	// lenientCond treats non-boolean pre-aggregate conditions as false
	// instead of erroring (the stratified-aggregate collect semantics).
	lenientCond bool

	// shardStep restricts the join enumeration at that step to the absolute
	// fact positions [shardLo, shardHi); -1 leaves every step unrestricted.
	shardStep        int
	shardLo, shardHi int

	// cancelled aborts the traversal cooperatively after another shard of
	// the same evaluation has failed; nil for sequential runs.
	cancelled *atomicBool

	// firings counts complete body matches and probes the candidate facts
	// visited at join steps. The counters are local to the traversal (one
	// per shard in parallel runs) and are folded into the engine's current
	// evaluation — and from there into the obs trace — by the caller.
	firings int64
	probes  int64

	// keyBufs holds one reusable lookup-key buffer per step depth, so keyed
	// probes don't allocate per candidate binding. Depths never re-enter
	// themselves within one traversal, and Lookup/VisitRange only read the
	// key synchronously, so per-depth reuse is safe.
	keyBufs [][]value.Value

	onMatch func() error
}

// errFirstMatch unwinds a FirstMatchOnly traversal back to the leading atom
// after a complete match: the guarded head is fully bound there, so further
// witnesses for the same guard binding can only re-emit the same fact.
var errFirstMatch = errors.New("vadalog: first match found")

func (c *evalCtx) step(si int) error {
	if si == c.limit {
		c.firings++
		if err := c.onMatch(); err != nil {
			return err
		}
		if c.cr.rule.FirstMatchOnly {
			return errFirstMatch
		}
		return nil
	}
	e, cr, slots := c.e, c.cr, c.slots
	st := &cr.steps[si]
	switch st.kind {
	case stepJoin:
		rel := e.db.Relation(st.pred)
		lo, hi := c.w.rangeFor(si, st.pred)
		if hi < 0 {
			hi = rel.Len()
		}
		if si == c.shardStep {
			lo = max(lo, c.shardLo)
			hi = min(hi, c.shardHi)
		}
		if lo >= hi {
			return nil
		}
		visit := func(pos int) error {
			if c.cancelled != nil && c.cancelled.Load() {
				return errEvalCancelled
			}
			c.probes++
			f := rel.At(pos)
			for _, i := range st.binderPos {
				slots[st.argSlot[i]] = f[i]
			}
			// checkPos positions repeat a variable whose binder is
			// earlier in this same atom, so check after binding.
			ok := true
			for _, i := range st.checkPos {
				if !value.Equal(f[i], slots[st.argSlot[i]]) {
					ok = false
					break
				}
			}
			if ok {
				if e.prov != nil {
					e.parentStack = append(e.parentStack, parentRef{pred: st.pred, pos: pos})
				}
				err := c.step(si + 1)
				if e.prov != nil {
					e.parentStack = e.parentStack[:len(e.parentStack)-1]
				}
				if err == errFirstMatch && si == 0 {
					// This leading-atom binding is satisfied; move on to
					// the next one instead of enumerating more witnesses.
					err = nil
				}
				if err != nil {
					return err
				}
			}
			for _, i := range st.binderPos {
				slots[st.argSlot[i]] = value.Value{}
			}
			return nil
		}
		// Range-restricted probe: the window is applied before collision
		// verification, and candidates are verified lazily so a
		// FirstMatchOnly cut stops before the rest of the bucket is checked.
		return rel.VisitRange(st.staticMask, c.stepKey(si, st), lo, hi, visit)
	case stepNeg:
		rel := e.db.Relation(st.pred)
		keyVals := c.stepKey(si, st)
		positions := rel.Lookup(st.staticMask, keyVals)
		if len(positions) > 0 {
			return nil // some matching fact exists: negation fails
		}
		return c.step(si + 1)
	case stepCond:
		v, err := st.expr.Eval(slotEnv{slots: slots, names: cr.slots})
		if err != nil {
			return err
		}
		if c.lenientCond {
			if !v.Truthy() {
				return nil
			}
			return c.step(si + 1)
		}
		if v.K != value.Bool {
			return fmt.Errorf("vadalog: rule %d (line %d): condition %s is not boolean", cr.idx, cr.rule.Line, st.expr)
		}
		if !v.B {
			return nil
		}
		return c.step(si + 1)
	case stepAssign:
		v, err := st.expr.Eval(slotEnv{slots: slots, names: cr.slots})
		if err != nil {
			return err
		}
		slots[st.assignSlot] = v
		err = c.step(si + 1)
		slots[st.assignSlot] = value.Value{}
		return err
	case stepAgg:
		return e.stepMonotonicAgg(cr, st, slots, func() error { return c.step(si + 1) })
	default:
		return fmt.Errorf("vadalog: invalid step kind")
	}
}

// stepKey fills this depth's reusable buffer with the lookup key values for
// the step's statically bound positions.
func (c *evalCtx) stepKey(si int, st *cStep) []value.Value {
	if st.staticMask == 0 {
		return nil
	}
	if c.keyBufs == nil {
		c.keyBufs = make([][]value.Value, len(c.cr.steps))
	}
	out := c.keyBufs[si]
	if cap(out) < len(st.staticKeySlots) {
		out = make([]value.Value, len(st.staticKeySlots))
		c.keyBufs[si] = out
	}
	out = out[:len(st.staticKeySlots)]
	for i, slot := range st.staticKeySlots {
		if slot < 0 {
			out[i] = st.staticKeyConst[i]
		} else {
			out[i] = c.slots[slot]
		}
	}
	return out
}

// stepMonotonicAgg advances one body match through a monotonic aggregate:
// unseen contributor tuples update the group accumulator and continue with
// the new running value bound; seen contributors are pruned, which both
// guarantees convergence and makes re-derivations across semi-naive rounds
// harmless (DESIGN.md, "Monotonic aggregation").
func (e *engine) stepMonotonicAgg(cr *cRule, st *cStep, slots []value.Value, cont func() error) error {
	group := make([]value.Value, len(cr.groupSlots))
	for i, s := range cr.groupSlots {
		group[i] = slots[s]
	}
	gkey := encodeKey(group)
	acc, ok := cr.aggState[gkey]
	if !ok {
		acc = newAggAccum()
		cr.aggState[gkey] = acc
	}
	contrib := make([]value.Value, len(st.agg.Contributors))
	for i, name := range st.agg.Contributors {
		v, ok := slotEnv{slots: slots, names: cr.slots}.Lookup(name)
		if !ok {
			return fmt.Errorf("vadalog: rule %d: contributor %s unbound", cr.idx, name)
		}
		contrib[i] = v
	}
	ckey := encodeKey(contrib)
	if acc.seen[ckey] {
		return nil
	}
	acc.seen[ckey] = true
	var av value.Value
	if st.agg.Arg != nil {
		v, err := st.agg.Arg.Eval(slotEnv{slots: slots, names: cr.slots})
		if err != nil {
			return err
		}
		av = v
	}
	if err := acc.update(st.agg.Op, av, value.Value{}); err != nil {
		return err
	}
	slots[st.assignSlot] = acc.current(st.agg.Op)
	err := cont()
	slots[st.assignSlot] = value.Value{}
	return err
}

// evalStratifiedAgg evaluates a rule containing a stratified aggregate: it
// enumerates all body matches up to the aggregate, groups them, computes the
// aggregate per group, then applies the remaining conditions and emits heads.
// Parallel runs shard the collect phase across the worker pool and merge the
// per-shard accumulators at the barrier (parallel.go).
func (e *engine) evalStratifiedAgg(cr *cRule) (int, error) {
	if e.pool != nil && e.prov == nil {
		if driver := driverStep(cr, fullWindows{}); driver >= 0 && driver < cr.aggStep &&
			e.db.Relation(cr.steps[driver].pred).Len() >= 2*minShardSize {
			return e.evalStratifiedAggSharded(cr, driver)
		}
	}
	groups := map[string]*aggAccum{}
	c := &evalCtx{
		e: e, cr: cr, w: fullWindows{},
		slots:       make([]value.Value, len(cr.slots)),
		limit:       cr.aggStep,
		lenientCond: true,
		shardStep:   -1,
	}
	c.onMatch = func() error { return accumulateGroup(cr, c.slots, groups) }
	err := c.step(0)
	e.curFirings += c.firings
	e.curProbes += c.probes
	if err != nil {
		return 0, err
	}
	return e.emitAggGroups(cr, groups)
}

// accumulateGroup folds one complete pre-aggregate body match into the group
// accumulator keyed by the grouping variables. Contributor-free aggregates
// absorb every distinct body match; listed contributors would make the
// aggregate monotonic, so they cannot reach this path.
func accumulateGroup(cr *cRule, slots []value.Value, groups map[string]*aggAccum) error {
	aggSt := &cr.steps[cr.aggStep]
	group := make([]value.Value, len(cr.groupSlots))
	for i, s := range cr.groupSlots {
		group[i] = slots[s]
	}
	gkey := encodeKey(group)
	acc, ok := groups[gkey]
	if !ok {
		acc = newAggAccum()
		acc.groupVals = group
		groups[gkey] = acc
	}
	var av, av2 value.Value
	if aggSt.agg.Arg != nil {
		v, err := aggSt.agg.Arg.Eval(slotEnv{slots: slots, names: cr.slots})
		if err != nil {
			return err
		}
		av = v
	}
	if aggSt.agg.Arg2 != nil {
		v, err := aggSt.agg.Arg2.Eval(slotEnv{slots: slots, names: cr.slots})
		if err != nil {
			return err
		}
		av2 = v
	}
	return acc.update(aggSt.agg.Op, av, av2)
}

// emitAggGroups runs the post-aggregate steps for every collected group, in
// sorted group-key order, and emits the rule heads.
func (e *engine) emitAggGroups(cr *cRule, groups map[string]*aggAccum) (int, error) {
	slots := make([]value.Value, len(cr.slots))
	aggSt := &cr.steps[cr.aggStep]
	gkeys := make([]string, 0, len(groups))
	for k := range groups {
		gkeys = append(gkeys, k)
	}
	sort.Strings(gkeys)
	inserted := 0
	e.inStratAgg = true
	defer func() { e.inStratAgg = false }()
	for _, gkey := range gkeys {
		acc := groups[gkey]
		for i := range slots {
			slots[i] = value.Value{}
		}
		for i, s := range cr.groupSlots {
			slots[s] = acc.groupVals[i]
		}
		slots[aggSt.assignSlot] = acc.current(aggSt.agg.Op)
		ok := true
		for si := cr.aggStep + 1; si < len(cr.steps); si++ {
			st := &cr.steps[si]
			switch st.kind {
			case stepCond:
				v, err := st.expr.Eval(slotEnv{slots: slots, names: cr.slots})
				if err != nil {
					return inserted, err
				}
				if !v.Truthy() {
					ok = false
				}
			case stepAssign:
				v, err := st.expr.Eval(slotEnv{slots: slots, names: cr.slots})
				if err != nil {
					return inserted, err
				}
				slots[st.assignSlot] = v
			default:
				return inserted, fmt.Errorf("vadalog: rule %d (line %d): atoms may not follow a stratified aggregate", cr.idx, cr.rule.Line)
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		n, err := e.emit(cr, slots)
		if err != nil {
			return inserted, err
		}
		inserted += n
	}
	return inserted, nil
}

// emit instantiates the rule heads under the current slots and inserts the
// resulting facts directly (the sequential sink). Head values are resolved
// into a reusable scratch tuple and copied only on genuine insertion
// (Relation.InsertValues), so the duplicate firings of a fixpoint round —
// usually the majority — allocate nothing.
func (e *engine) emit(cr *cRule, slots []value.Value) (int, error) {
	exVals := skolemExVals(cr, slots)
	inserted := 0
	for hi := range cr.heads {
		h := &cr.heads[hi]
		if cap(e.headScratch) < len(h.args) {
			e.headScratch = make([]value.Value, len(h.args))
		}
		vals := e.headScratch[:len(h.args)]
		for i := range h.args {
			v, err := resolveHeadArg(cr, slots, exVals, &h.args[i])
			if err != nil {
				return inserted, err
			}
			vals[i] = v
		}
		rel := e.db.Relation(h.pred)
		added, err := rel.InsertValues(vals)
		if err != nil {
			return inserted, err
		}
		if !added {
			continue
		}
		if e.prov != nil {
			d := derivation{ruleIdx: cr.idx, line: cr.rule.Line, viaAggregate: e.inStratAgg}
			if !e.inStratAgg {
				d.parents = append([]parentRef(nil), e.parentStack...)
			}
			e.prov[provKey(h.pred, rel.At(rel.Len()-1))] = d
		}
		inserted++
		e.derived++
		if e.opts.MaxFacts > 0 && e.derived > e.opts.MaxFacts {
			return inserted, errMaxFacts(e.opts.MaxFacts)
		}
	}
	return inserted, nil
}

func errMaxFacts(limit int) error {
	return fmt.Errorf("vadalog: derived fact limit %d exceeded", limit)
}

// headFacts instantiates every head atom of the rule under the slots and
// hands the resulting facts to the sink. Existential variables are realized
// with frontier-keyed Skolem identifiers shared across the head conjunction.
func headFacts(cr *cRule, slots []value.Value, sink func(pred string, f Fact) error) error {
	exVals := skolemExVals(cr, slots)
	for hi := range cr.heads {
		h := &cr.heads[hi]
		f := make(Fact, len(h.args))
		for i := range h.args {
			v, err := resolveHeadArg(cr, slots, exVals, &h.args[i])
			if err != nil {
				return err
			}
			f[i] = v
		}
		if err := sink(h.pred, f); err != nil {
			return err
		}
	}
	return nil
}

// skolemExVals realizes the rule's existential head variables as
// frontier-keyed Skolem values under the current slots; nil when the rule has
// none.
func skolemExVals(cr *cRule, slots []value.Value) map[string]value.Value {
	if len(cr.existNames) == 0 {
		return nil
	}
	frontier := make([]value.Value, len(cr.frontierSlots))
	for i, s := range cr.frontierSlots {
		frontier[i] = slots[s]
	}
	exVals := make(map[string]value.Value, len(cr.existNames))
	for _, name := range cr.existNames {
		exVals[name] = value.Skolem(cr.existFunctors[name], frontier...)
	}
	return exVals
}

// resolveHeadArg materializes one head argument under the current slots. A
// top-level function rather than a closure inside headFacts: recursive
// closures allocate, and this runs once per head argument per firing.
func resolveHeadArg(cr *cRule, slots []value.Value, exVals map[string]value.Value, ha *cHeadArg) (value.Value, error) {
	switch ha.kind {
	case headConst:
		return ha.cval, nil
	case headSlot:
		v := slots[ha.slot]
		if v.IsZero() {
			return value.Value{}, fmt.Errorf("vadalog: rule %d: unbound head slot", cr.idx)
		}
		return v, nil
	case headExist:
		return exVals[ha.exName], nil
	case headSkolem:
		args := make([]value.Value, len(ha.skArgs))
		for i := range ha.skArgs {
			v, err := resolveHeadArg(cr, slots, exVals, &ha.skArgs[i])
			if err != nil {
				return value.Value{}, err
			}
			args[i] = v
		}
		return value.Skolem(ha.functor, args...), nil
	default:
		return value.Value{}, fmt.Errorf("vadalog: invalid head argument")
	}
}
