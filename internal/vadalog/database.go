package vadalog

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// ErrFrozen reports a write to a frozen relation or database (see
// Database.Freeze). Frozen state is shared by pointer between databases, so
// writes are refused rather than applied; write through a Layer instead.
var ErrFrozen = errors.New("vadalog: write to a frozen relation")

// Fact is a tuple of values, a member of a relation (Section 4, "Relational
// Foundations"). Facts are immutable once inserted.
type Fact []value.Value

func (f Fact) String() string {
	parts := make([]string, len(f))
	for i, v := range f {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// encodeKey renders a tuple as one canonical string. The relation's dedup
// and join indexes no longer use it (they work on interned symbols, below);
// it remains the key format of the aggregate group keys and the provenance
// store, where a printable, order-free key is worth the allocation.
func encodeKey(vals []value.Value) string {
	var buf [96]byte
	b := buf[:0]
	for i, v := range vals {
		if i > 0 {
			b = append(b, 0)
		}
		b = v.AppendCanonical(b)
	}
	return string(b)
}

// canonicalNaNBits is the single bit pattern every NaN hashes under: all NaN
// payloads print "NaN", so canonical equality merges them.
const canonicalNaNBits = 0x7ff8000000000000

// FNV-1a parameters for hashing tuples.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashValue folds one value into an FNV-1a state. The hash discriminates
// exactly what canonical-string equality discriminates: the Kind tag keeps
// Int 1, Float 1 and String "1" apart (as their canonical prefixes do),
// every NaN collapses to one pattern while +0 and -0 stay distinct (they
// print "0" and "-0"), and string payloads are folded byte-wise.
func hashValue(h uint64, v value.Value) uint64 {
	h ^= uint64(v.K)
	h *= fnvPrime64
	switch v.K {
	case value.Int, value.Null:
		h ^= uint64(v.I)
		h *= fnvPrime64
	case value.Float:
		b := math.Float64bits(v.F)
		if v.F != v.F {
			b = canonicalNaNBits
		}
		h ^= b
		h *= fnvPrime64
	case value.Bool:
		if v.B {
			h ^= 1
		}
		h *= fnvPrime64
	default: // String, ID, Invalid carry their payload in S.
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= fnvPrime64
		}
	}
	return h
}

// hashTuple hashes a full tuple.
func hashTuple(vals []value.Value) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h = hashValue(h, v)
	}
	return h
}

// canonicalEqual mirrors canonical-string equality (value.Canonical) without
// materializing the strings. It is deliberately NOT value.Equal: Compare
// merges Int 1 with Float 1.0 numerically, while the canonical forms — and
// therefore the dedup and index keys — keep the kinds apart.
func canonicalEqual(a, b value.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case value.Int, value.Null:
		return a.I == b.I
	case value.Float:
		if a.F != a.F {
			return b.F != b.F // every NaN prints "NaN"
		}
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case value.Bool:
		return a.B == b.B
	default:
		return a.S == b.S
	}
}

// tupleEqual reports canonical equality of two same-arity tuples.
func tupleEqual(a, b []value.Value) bool {
	for i := range a {
		if !canonicalEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Relation is an append-only set of facts of a fixed arity with hash indexes.
//
// Facts keep their insertion order, which lets the semi-naive engine address
// "old" and "delta" windows of the same relation by position ranges instead
// of copying snapshots.
//
// Deduplication and the join indexes key on tuple hashes over the values'
// canonical identity instead of concatenated canonical strings: an insert
// and an index probe allocate no key material, and hash collisions are
// resolved by comparing tuples under canonicalEqual — never by re-encoding.
type Relation struct {
	Arity int
	facts []Fact

	// dedup maps a full-tuple hash to the first fact position with that
	// hash; dedupMore holds the rare further positions whose distinct tuples
	// share a hash. Splitting the two keeps the common case at one map word
	// per fact with no slice allocation.
	dedup     map[uint64]int32
	dedupMore map[uint64][]int32

	// indexes maps a bitmask of bound positions to an index from the
	// projected-tuple hash to ascending fact positions. Once built for a
	// mask, an index is maintained incrementally by Insert. Probes verify
	// the candidate facts value-by-value, so a hash collision costs a
	// filtered copy, never a wrong answer.
	indexes map[uint64]map[uint64][]int

	// recycle marks a pooled scratch relation: Reset keeps the fact-slot
	// backing array and InsertValues may overwrite slots beyond len(facts).
	// It must stay false on any relation whose facts outlive its contents —
	// live relations hand removed Fact headers to callers, and recycling
	// would overwrite them in place.
	recycle bool

	// frozen marks a relation shared read-only between databases (Freeze):
	// every write returns ErrFrozen. Freeze moves the indexes to shared and
	// leaves indexes nil, so a frozen relation's index probe always misses
	// the private map and ensureIndex takes the shared path — the branch
	// sits on the miss path only, and a private relation's probe is the
	// same map hit it always was.
	frozen bool
	// shared holds a frozen relation's indexes, published copy-on-write:
	// readers load the mask map without a lock, and idxMu serializes the
	// lazy builds, each of which publishes a new mask map once. Concurrent
	// queries over one frozen base therefore build each index once per
	// generation and never write a map another goroutine reads.
	shared atomic.Pointer[map[uint64]map[uint64][]int]
	idxMu  sync.Mutex
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{
		Arity:   arity,
		dedup:   make(map[uint64]int32),
		indexes: make(map[uint64]map[uint64][]int),
	}
}

// Len returns the number of facts.
func (r *Relation) Len() int { return len(r.facts) }

// Reset empties the relation while keeping its allocated capacity: the fact
// slots, dedup buckets and per-mask index maps are all retained. The
// maintenance path resets its pooled shadow relations between batches, so a
// steady-state Apply stops paying slice and map regrowth for them.
func (r *Relation) Reset() error {
	if r.frozen {
		return ErrFrozen
	}
	r.facts = r.facts[:0]
	clear(r.dedup)
	clear(r.dedupMore)
	for _, idx := range r.indexes {
		clear(idx)
	}
	return nil
}

// thaw returns a private, writable copy of the relation: the fact slice and
// dedup tables are copied (the facts themselves are immutable and shared),
// and no index is copied — the copy builds its own on first probe.
func (r *Relation) thaw() *Relation {
	out := &Relation{
		Arity:   r.Arity,
		facts:   slices.Clone(r.facts),
		dedup:   maps.Clone(r.dedup),
		indexes: make(map[uint64]map[uint64][]int),
	}
	if len(r.dedupMore) > 0 {
		// The overflow lists are appended to in place, so each one is
		// copied rather than shared with the original.
		out.dedupMore = make(map[uint64][]int32, len(r.dedupMore))
		for h, ps := range r.dedupMore {
			out.dedupMore[h] = slices.Clone(ps)
		}
	}
	return out
}

// At returns the fact at the given position.
func (r *Relation) At(pos int) Fact { return r.facts[pos] }

// dedupFind scans the positions hashed to h for one whose tuple equals f.
func (r *Relation) dedupFind(h uint64, f Fact) (int, bool) {
	pos, ok := r.dedup[h]
	if !ok {
		return 0, false
	}
	if tupleEqual(r.facts[pos], f) {
		return int(pos), true
	}
	for _, p := range r.dedupMore[h] {
		if tupleEqual(r.facts[p], f) {
			return int(p), true
		}
	}
	return 0, false
}

// Contains reports whether the tuple is already in the relation. It never
// mutates the relation, so it is safe alongside concurrent reads.
func (r *Relation) Contains(f Fact) bool {
	if len(f) != r.Arity {
		return false
	}
	_, found := r.dedupFind(hashTuple(f), f)
	return found
}

// Insert adds a fact, reporting whether it was new. It is an error to insert
// a fact of the wrong arity, or into a frozen relation (ErrFrozen).
func (r *Relation) Insert(f Fact) (bool, error) {
	if len(f) != r.Arity {
		return false, fmt.Errorf("vadalog: arity mismatch: relation has arity %d, fact has %d", r.Arity, len(f))
	}
	if r.frozen {
		return false, ErrFrozen
	}
	h := hashTuple(f)
	if _, dup := r.dedupFind(h, f); dup {
		return false, nil
	}
	r.insertNew(h, f)
	return true, nil
}

// InsertValues is Insert for a caller-owned scratch tuple: the values are
// copied into a fresh Fact only when no equal fact is present. Dup-heavy
// emitters (a fixpoint round re-deriving mostly known facts) therefore pay
// no allocation per duplicate.
func (r *Relation) InsertValues(vals []value.Value) (bool, error) {
	if len(vals) != r.Arity {
		return false, fmt.Errorf("vadalog: arity mismatch: relation has arity %d, fact has %d", r.Arity, len(vals))
	}
	if r.frozen {
		return false, ErrFrozen
	}
	h := hashTuple(vals)
	if _, dup := r.dedupFind(h, vals); dup {
		return false, nil
	}
	var f Fact
	if r.recycle && len(r.facts) < cap(r.facts) {
		// A pooled relation reuses the fact slot a prior generation left
		// behind the logical end of the slice.
		if old := r.facts[:len(r.facts)+1][len(r.facts)]; cap(old) >= len(vals) {
			f = old[:len(vals)]
		}
	}
	if f == nil {
		f = make(Fact, len(vals))
	}
	copy(f, vals)
	r.insertNew(h, f)
	return true, nil
}

// insertNew appends a fact known to be absent, updating the dedup table and
// every materialized index. The relation takes ownership of f.
func (r *Relation) insertNew(h uint64, f Fact) {
	pos := len(r.facts)
	if _, taken := r.dedup[h]; taken {
		if r.dedupMore == nil {
			r.dedupMore = make(map[uint64][]int32)
		}
		r.dedupMore[h] = append(r.dedupMore[h], int32(pos))
	} else {
		r.dedup[h] = int32(pos)
	}
	r.facts = append(r.facts, f)
	for mask, idx := range r.indexes {
		ph := projectHash(f, mask)
		idx[ph] = append(idx[ph], pos)
	}
}

// projectHash hashes the values at the masked positions of a tuple.
func projectHash(f Fact, mask uint64) uint64 {
	h := uint64(fnvOffset64)
	for i, v := range f {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		h = hashValue(h, v)
	}
	return h
}

// warmIndex builds (if absent) the index for the given mask. The engine
// calls it for every mask a rule can consult before fanning that rule's
// evaluation out to worker goroutines: index construction is the only lazy
// mutation on the relation read path, so after warming, concurrent Lookup /
// Contains / At / Len calls are race-free as long as no Insert runs
// alongside them — which the parallel evaluator guarantees by buffering
// emissions until its merge barrier. (Frozen relations need no warming to
// be race-free; warming one just builds its shared index early.)
func (r *Relation) warmIndex(mask uint64) {
	if mask != 0 {
		r.ensureIndex(mask)
	}
}

func (r *Relation) ensureIndex(mask uint64) map[uint64][]int {
	if idx, ok := r.indexes[mask]; ok {
		return idx
	}
	if r.frozen {
		return r.sharedIndex(mask)
	}
	idx := r.buildIndex(mask)
	r.indexes[mask] = idx
	return idx
}

// buildIndex hashes every fact's projection onto mask.
func (r *Relation) buildIndex(mask uint64) map[uint64][]int {
	idx := make(map[uint64][]int)
	for pos, f := range r.facts {
		ph := projectHash(f, mask)
		idx[ph] = append(idx[ph], pos)
	}
	return idx
}

// sharedIndex returns a frozen relation's index for mask, building it on
// first use. Builds run under idxMu and publish a fresh mask map, so a
// reader never sees a map that is still being written; a published index is
// never written again, since a frozen relation takes no inserts.
func (r *Relation) sharedIndex(mask uint64) map[uint64][]int {
	if m := r.shared.Load(); m != nil {
		if idx, ok := (*m)[mask]; ok {
			return idx
		}
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	var next map[uint64]map[uint64][]int
	if m := r.shared.Load(); m != nil {
		if idx, ok := (*m)[mask]; ok {
			return idx // another goroutine built it while we waited
		}
		next = maps.Clone(*m)
	} else {
		next = make(map[uint64]map[uint64][]int, 1)
	}
	idx := r.buildIndex(mask)
	next[mask] = idx
	r.shared.Store(&next)
	return idx
}

// factMatches reports whether fact pos agrees with bound (the values of the
// masked positions, in ascending position order).
func (r *Relation) factMatches(pos int, mask uint64, bound []value.Value) bool {
	f := r.facts[pos]
	j := 0
	for i, v := range f {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if !canonicalEqual(v, bound[j]) {
			return false
		}
		j++
	}
	return true
}

// Lookup returns the ascending positions of facts whose values at the masked
// positions equal boundVals (given in ascending position order). A zero mask
// matches every fact. The common, collision-free probe returns the index
// bucket itself with no allocation; when distinct projections share a hash
// the bucket is filtered by value comparison.
func (r *Relation) Lookup(mask uint64, boundVals []value.Value) []int {
	if mask == 0 {
		out := make([]int, len(r.facts))
		for i := range out {
			out[i] = i
		}
		return out
	}
	idx := r.ensureIndex(mask)
	if bits.OnesCount64(mask&(1<<uint(r.Arity)-1)) != len(boundVals) {
		return nil // malformed probe: bound values don't line up with the mask
	}
	h := uint64(fnvOffset64)
	for _, v := range boundVals {
		h = hashValue(h, v)
	}
	cand := idx[h]
	for i, pos := range cand {
		if !r.factMatches(pos, mask, boundVals) {
			out := append([]int(nil), cand[:i]...)
			for _, p := range cand[i+1:] {
				if r.factMatches(p, mask, boundVals) {
					out = append(out, p)
				}
			}
			return out
		}
	}
	return cand
}

// All returns all facts in insertion order. The returned slice must not be
// modified.
func (r *Relation) All() []Fact { return r.facts }

// Remove deletes the given facts from the relation and returns the facts
// actually removed (facts that were absent, malformed, or listed twice are
// skipped). Removal costs O(k) in the number of facts removed, not O(n) in
// the relation size: each removed fact is unlinked from the dedup maps and
// every posting list it appears in, and the relation's last fact is swapped
// into the vacated position with its own entries repointed. Incremental
// maintenance retracts a handful of facts from relations five orders of
// magnitude larger, so a rebuild here would cost as much as the full
// re-evaluation the maintenance layer exists to avoid.
//
// The relative order of the survivors is NOT preserved (the tail fact moves
// down); posting lists DO stay ascending, which the engine's window
// filtering binary-searches on. Because positions shift, Remove must never
// run while an engine holds position windows over the relation — the
// maintenance layer only calls it between evaluation phases. A frozen
// relation removes nothing and returns ErrFrozen.
func (r *Relation) Remove(facts []Fact) ([]Fact, error) {
	return r.removeInto(nil, facts)
}

// removeInto is Remove accumulating into a caller-supplied buffer, so a
// caller that drains the result between calls (the maintenance loop) reuses
// one backing array instead of growing a fresh slice per relation.
func (r *Relation) removeInto(removed []Fact, facts []Fact) ([]Fact, error) {
	if r.frozen {
		return removed, ErrFrozen
	}
	for _, f := range facts {
		if len(f) != r.Arity {
			continue
		}
		h := hashTuple(f)
		pos, ok := r.dedupFind(h, f)
		if !ok {
			continue // absent, or a duplicate of an earlier removal
		}
		removed = append(removed, r.facts[pos])
		r.removeAt(pos, h)
	}
	return removed, nil
}

// removeAt unlinks the fact at pos (whose full-tuple hash is h) and moves the
// relation's last fact into its place.
func (r *Relation) removeAt(pos int, h uint64) {
	last := len(r.facts) - 1
	gone := r.facts[pos]
	r.dedupUnlink(h, int32(pos))
	for mask, idx := range r.indexes {
		ph := projectHash(gone, mask)
		if lst := postingDelete(idx[ph], pos); len(lst) > 0 {
			idx[ph] = lst
		} else {
			delete(idx, ph)
		}
	}
	if pos != last {
		moved := r.facts[last]
		r.facts[pos] = moved
		r.dedupRepoint(hashTuple(moved), int32(last), int32(pos))
		for mask, idx := range r.indexes {
			// last is the highest position in the relation, so it is the
			// final element of its ascending posting list; drop it there and
			// re-insert the fact at its new, lower position. If gone and
			// moved share the bucket, the delete above left last in place.
			mph := projectHash(moved, mask)
			lst := idx[mph]
			idx[mph] = postingInsert(lst[:len(lst)-1], pos)
		}
	}
	r.facts[last] = nil // release the tail slot for GC
	r.facts = r.facts[:last]
}

// dedupUnlink removes the dedup entry mapping hash h to position pos,
// promoting an overflow position into the primary map when one exists.
func (r *Relation) dedupUnlink(h uint64, pos int32) {
	if p, ok := r.dedup[h]; ok && p == pos {
		if more := r.dedupMore[h]; len(more) > 0 {
			r.dedup[h] = more[len(more)-1]
			r.shrinkMore(h, len(more)-1)
		} else {
			delete(r.dedup, h)
		}
		return
	}
	more := r.dedupMore[h]
	for i, p := range more {
		if p == pos {
			more[i] = more[len(more)-1]
			r.shrinkMore(h, len(more)-1)
			return
		}
	}
}

// shrinkMore truncates the overflow list for h to n entries, dropping the
// key entirely when none remain.
func (r *Relation) shrinkMore(h uint64, n int) {
	if n == 0 {
		delete(r.dedupMore, h)
	} else {
		r.dedupMore[h] = r.dedupMore[h][:n]
	}
}

// dedupRepoint rewrites the dedup entry for hash h from position from to
// position to, wherever it lives.
func (r *Relation) dedupRepoint(h uint64, from, to int32) {
	if p, ok := r.dedup[h]; ok && p == from {
		r.dedup[h] = to
		return
	}
	more := r.dedupMore[h]
	for i, p := range more {
		if p == from {
			more[i] = to
			return
		}
	}
}

// postingDelete removes pos from an ascending posting list in place.
func postingDelete(lst []int, pos int) []int {
	i := sort.SearchInts(lst, pos)
	if i >= len(lst) || lst[i] != pos {
		return lst
	}
	return append(lst[:i], lst[i+1:]...)
}

// postingInsert inserts pos into an ascending posting list.
func postingInsert(lst []int, pos int) []int {
	i := sort.SearchInts(lst, pos)
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = pos
	return lst
}

// VisitRange invokes fn for every fact position in [lo, hi) whose mask-selected
// columns equal boundVals, in ascending position order, stopping at the first
// error from fn. Candidates are verified lazily, one at a time, so a caller
// that stops early (the engine's first-match cut) never pays for the rest of
// the hash bucket. mask 0 visits the whole window.
func (r *Relation) VisitRange(mask uint64, boundVals []value.Value, lo, hi int, fn func(pos int) error) error {
	if lo < 0 {
		lo = 0
	}
	if hi > len(r.facts) {
		hi = len(r.facts)
	}
	if lo >= hi {
		return nil
	}
	if mask == 0 {
		for pos := lo; pos < hi; pos++ {
			if err := fn(pos); err != nil {
				return err
			}
		}
		return nil
	}
	idx := r.ensureIndex(mask)
	if bits.OnesCount64(mask&(1<<uint(r.Arity)-1)) != len(boundVals) {
		return nil // malformed probe: bound values don't line up with the mask
	}
	h := uint64(fnvOffset64)
	for _, v := range boundVals {
		h = hashValue(h, v)
	}
	cand := idx[h]
	cand = cand[sort.SearchInts(cand, lo):]
	cand = cand[:sort.SearchInts(cand, hi)]
	for _, pos := range cand {
		if !r.factMatches(pos, mask, boundVals) {
			continue
		}
		if err := fn(pos); err != nil {
			return err
		}
	}
	return nil
}

// Sorted returns the facts sorted lexicographically by value order, for
// deterministic output.
func (r *Relation) Sorted() []Fact {
	out := append([]Fact(nil), r.facts...)
	sort.Slice(out, func(i, j int) bool { return factLess(out[i], out[j]) })
	return out
}

func factLess(a, b Fact) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := value.Compare(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// Database is a set of named relations: the (database) instance of Section 4.
//
// A database is either private — the engine saturates it in place — or
// frozen (Freeze): read-only, shareable across goroutines and generations.
// Layer stacks a private database over a frozen one, sharing every relation
// by pointer; a relation is copied into the layer only when something writes
// to it. That is how the serving layer evaluates every query over one frozen
// fact base: the base plus a per-query derived delta, in O(#relations).
type Database struct {
	rels   map[string]*Relation
	frozen bool
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// Freeze makes the database and every relation in it read-only and returns
// the database. Writes then fail with ErrFrozen, and Run, RunCtx and
// RunInPlace evaluate over a Layer instead of saturating it. Freeze costs
// O(#relations) and builds no index: indexes are built lazily, once per
// relation and mask, and shared by every later reader. Freezing an already
// frozen database or relation writes nothing, so it is safe while other
// goroutines read it.
func (d *Database) Freeze() *Database {
	if d.frozen {
		return d
	}
	for _, r := range d.rels {
		if r.frozen {
			continue
		}
		if len(r.indexes) > 0 {
			idx := r.indexes
			r.shared.Store(&idx)
		}
		r.indexes = nil
		r.frozen = true
	}
	d.frozen = true
	return d
}

// Frozen reports whether the database is read-only (see Freeze).
func (d *Database) Frozen() bool { return d.frozen }

// Layer returns a private database over d's relations: every relation is
// shared by pointer, and the layer's writes never reach d. Layer freezes d
// first (a relation shared by two databases must not change under either).
// Writes through the layer are copy-on-write: AddFact and MergeInto copy a
// shared relation into the layer before inserting, ReplaceFacts swaps in a
// fresh one, and the engine copies the relations a program's heads write
// before evaluating. Creating a layer costs O(#relations).
func (d *Database) Layer() *Database {
	d.Freeze()
	return &Database{rels: maps.Clone(d.rels)}
}

// Relation returns the named relation, or nil if absent.
func (d *Database) Relation(pred string) *Relation { return d.rels[pred] }

// EnsureRelation returns the named relation, creating it with the given arity
// if absent. It is an error to re-declare a relation with a different arity,
// and to create one in a frozen database (ErrFrozen).
func (d *Database) EnsureRelation(pred string, arity int) (*Relation, error) {
	if r, ok := d.rels[pred]; ok {
		if r.Arity != arity {
			return nil, fmt.Errorf("vadalog: predicate %s used with arity %d and %d", pred, r.Arity, arity)
		}
		return r, nil
	}
	if d.frozen {
		return nil, ErrFrozen
	}
	r := NewRelation(arity)
	d.rels[pred] = r
	return r, nil
}

// writable is EnsureRelation for a caller about to insert: a frozen relation
// shared into this (private) database is first replaced by a private copy.
func (d *Database) writable(pred string, arity int) (*Relation, error) {
	r, err := d.EnsureRelation(pred, arity)
	if err != nil || !r.frozen {
		return r, err
	}
	if d.frozen {
		return nil, ErrFrozen
	}
	return d.own(pred), nil
}

// own makes the named relation private to d, copying it when it is frozen
// (shared), and returns it. d itself must not be frozen.
func (d *Database) own(pred string) *Relation {
	r := d.rels[pred]
	if r != nil && r.frozen {
		r = r.thaw()
		d.rels[pred] = r
	}
	return r
}

// AddFact inserts a fact into the named relation, creating the relation on
// first use. It reports whether the fact was new.
func (d *Database) AddFact(pred string, vals ...value.Value) (bool, error) {
	r, err := d.writable(pred, len(vals))
	if err != nil {
		return false, err
	}
	return r.Insert(Fact(vals))
}

// MustAddFact is AddFact that panics on arity mismatch, for test fixtures and
// generated loaders whose arity is known correct by construction.
func (d *Database) MustAddFact(pred string, vals ...value.Value) {
	if _, err := d.AddFact(pred, vals...); err != nil {
		panic(err)
	}
}

// Facts returns the facts of a predicate in insertion order, or nil.
func (d *Database) Facts(pred string) []Fact {
	r := d.rels[pred]
	if r == nil {
		return nil
	}
	return r.All()
}

// SortedFacts returns the facts of a predicate in deterministic value order.
func (d *Database) SortedFacts(pred string) []Fact {
	r := d.rels[pred]
	if r == nil {
		return nil
	}
	return r.Sorted()
}

// Count returns the number of facts of a predicate.
func (d *Database) Count(pred string) int {
	r := d.rels[pred]
	if r == nil {
		return 0
	}
	return r.Len()
}

// TotalFacts returns the number of facts across all relations.
func (d *Database) TotalFacts() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}

// Predicates returns the relation names, sorted.
func (d *Database) Predicates() []string {
	out := make([]string, 0, len(d.rels))
	for p := range d.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Clone returns a private deep copy of the database (facts are shared, as
// they are immutable; relation bookkeeping is copied, indexes are not). The
// copy is never frozen, whatever d is.
func (d *Database) Clone() *Database {
	out := NewDatabase()
	for pred, r := range d.rels {
		out.rels[pred] = r.thaw()
	}
	return out
}

// ReplaceFacts swaps the named relation for a fresh one holding the given
// facts in the given order (deduplicated on insert). It lets maintenance
// layers rebuild a relation in a canonical order — the incremental fact
// extractor keeps extraction relations in ascending-OID order this way, so an
// incrementally maintained database is indistinguishable from a freshly
// extracted one, insertion order included. The replaced relation itself is
// not modified, so replacing a relation a Layer shares leaves the base
// intact; a frozen database refuses with ErrFrozen.
func (d *Database) ReplaceFacts(pred string, arity int, facts []Fact) error {
	if d.frozen {
		return ErrFrozen
	}
	nr := NewRelation(arity)
	for _, f := range facts {
		if _, err := nr.Insert(f); err != nil {
			return err
		}
	}
	d.rels[pred] = nr
	return nil
}

// MergeInto copies every fact of d into dst. It reports the number of facts
// that were new in dst.
func (d *Database) MergeInto(dst *Database) (int, error) {
	added := 0
	for _, pred := range d.Predicates() {
		r := d.rels[pred]
		dr, err := dst.writable(pred, r.Arity)
		if err != nil {
			return added, err
		}
		for _, f := range r.All() {
			ok, err := dr.Insert(f)
			if err != nil {
				return added, err
			}
			if ok {
				added++
			}
		}
	}
	return added, nil
}

// Dump renders the database deterministically, for tests and debugging.
func (d *Database) Dump() string {
	var b strings.Builder
	for _, pred := range d.Predicates() {
		for _, f := range d.SortedFacts(pred) {
			b.WriteString(pred)
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
