package vadalog

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/value"
)

// Frozen databases and copy-on-write layers: a frozen database is shared
// read-only state, every write to it is refused with ErrFrozen, and a run
// over it derives into a Layer whose result matches a run over a private
// clone fact for fact, insertion order included.

// frozenEdgeDB is a small graph: n(0..nodes-1) and a seeded random e/2.
func frozenEdgeDB(seed int64, nodes, edges int) *Database {
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase()
	for i := 0; i < nodes; i++ {
		db.MustAddFact("n", value.IntV(int64(i)))
	}
	for i := 0; i < edges; i++ {
		db.MustAddFact("e", value.IntV(int64(rng.Intn(nodes))), value.IntV(int64(rng.Intn(nodes))))
	}
	return db
}

// sameInsertionOrder fails unless a and b hold the same relations with the
// same facts at the same positions.
func sameInsertionOrder(t *testing.T, label string, a, b *Database) {
	t.Helper()
	if pa, pb := fmt.Sprint(a.Predicates()), fmt.Sprint(b.Predicates()); pa != pb {
		t.Fatalf("%s: predicates %s vs %s", label, pa, pb)
	}
	for _, pred := range a.Predicates() {
		fa, fb := a.Facts(pred), b.Facts(pred)
		if len(fa) != len(fb) {
			t.Fatalf("%s: %s has %d vs %d facts", label, pred, len(fa), len(fb))
		}
		for i := range fa {
			if !tupleEqual(fa[i], fb[i]) {
				t.Fatalf("%s: %s diverges at position %d: %s vs %s", label, pred, i, fa[i], fb[i])
			}
		}
	}
}

func TestFrozenWritesRefused(t *testing.T) {
	db := frozenEdgeDB(1, 5, 8)
	db.Relation("e").ensureIndex(1) // an index built before freezing stays usable
	before := db.Dump()
	db.Freeze()
	if !db.Frozen() || !db.Relation("e").frozen {
		t.Fatal("Freeze must mark the database and its relations")
	}
	e := db.Relation("e")
	f := Fact{value.IntV(100), value.IntV(101)}
	checks := map[string]error{}
	_, checks["Relation.Insert"] = e.Insert(f)
	_, checks["Relation.InsertValues"] = e.InsertValues(f)
	_, checks["Relation.Remove"] = e.Remove([]Fact{e.At(0)})
	checks["Relation.Reset"] = e.Reset()
	_, checks["Database.AddFact"] = db.AddFact("e", f...)
	_, checks["Database.AddFact(new)"] = db.AddFact("fresh", value.IntV(1))
	_, checks["Database.EnsureRelation(new)"] = db.EnsureRelation("fresh", 1)
	checks["Database.ReplaceFacts"] = db.ReplaceFacts("e", 2, nil)
	_, checks["Database.MergeInto"] = frozenEdgeDB(2, 3, 3).MergeInto(db)
	for name, err := range checks {
		if !errors.Is(err, ErrFrozen) {
			t.Errorf("%s on a frozen database: err = %v, want ErrFrozen", name, err)
		}
	}
	if got := db.Dump(); got != before {
		t.Fatalf("refused writes changed the frozen database:\n%s\nwant:\n%s", got, before)
	}
	if got := e.Lookup(1, []value.Value{e.At(0)[0]}); len(got) == 0 {
		t.Fatal("index built before Freeze lost its postings")
	}
	// Reads and an existing relation's EnsureRelation still work.
	if r, err := db.EnsureRelation("e", 2); err != nil || r != e {
		t.Fatalf("EnsureRelation of an existing relation: %v", err)
	}
}

// TestLayerHeadRelationIsPrivate runs a program whose head names a base
// predicate over a frozen database: the run must copy that relation into
// its layer, share every other one, and leave the base byte-identical.
func TestLayerHeadRelationIsPrivate(t *testing.T) {
	prog := MustParse(`
		e(X,Z) :- e(X,Y), e(Y,Z).
		reach(X) :- n(X), e(0,X).
	`)
	base := frozenEdgeDB(3, 12, 20)
	want, err := Run(prog, base.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	base.Freeze()
	before := base.Dump()

	for _, run := range []struct {
		name string
		fn   func() (*Result, error)
	}{
		{"Run", func() (*Result, error) { return Run(prog, base, Options{}) }},
		{"Run/OwnInput", func() (*Result, error) { return Run(prog, base, Options{OwnInput: true}) }},
		{"RunInPlace", func() (*Result, error) { return RunInPlace(prog, base, Options{Workers: 4}) }},
	} {
		res, err := run.fn()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if res.DB == base {
			t.Fatalf("%s: returned the frozen base as its result", run.name)
		}
		if res.DB.Relation("e") == base.Relation("e") || res.DB.Relation("e").frozen {
			t.Fatalf("%s: head relation e was not copied into the layer", run.name)
		}
		if res.DB.Relation("n") != base.Relation("n") {
			t.Fatalf("%s: body-only relation n should be shared with the base", run.name)
		}
		sameInsertionOrder(t, run.name, res.DB, want.DB)
		if got := base.Dump(); got != before {
			t.Fatalf("%s modified the frozen base", run.name)
		}
	}

	// A maintainer saturates in place, so it must refuse a frozen database
	// outright rather than retract from shared relations.
	if _, err := NewMaintainer(prog, base, Options{}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("NewMaintainer on a frozen database: err = %v, want ErrFrozen", err)
	}
	if got := base.Dump(); got != before {
		t.Fatal("a refused Maintainer modified the frozen base")
	}

	// Over a layer it maintains private copies, and the base stays put.
	m, err := NewMaintainer(prog, base.Layer(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.DelFact("e", base.Relation("e").At(0)...)
	d.AddFact("e", value.IntV(0), value.IntV(11))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if got := base.Dump(); got != before {
		t.Fatal("maintaining a layer modified the frozen base")
	}
}

// TestLayerCopyOnWrite pins the write API of a layer: AddFact copies a
// shared relation before inserting, ReplaceFacts swaps in a fresh one, and
// neither reaches the base.
func TestLayerCopyOnWrite(t *testing.T) {
	base := frozenEdgeDB(4, 6, 10)
	before := base.Dump()
	l := base.Layer()
	if !base.Frozen() || l.Frozen() {
		t.Fatal("Layer freezes its base and is itself writable")
	}
	if l.Relation("e") != base.Relation("e") {
		t.Fatal("a fresh layer shares every relation")
	}
	if _, err := l.AddFact("e", value.IntV(50), value.IntV(51)); err != nil {
		t.Fatal(err)
	}
	if l.Relation("e") == base.Relation("e") || l.Count("e") != base.Count("e")+1 {
		t.Fatal("AddFact on a shared relation must copy it into the layer")
	}
	if err := l.ReplaceFacts("n", 1, nil); err != nil {
		t.Fatal(err)
	}
	if l.Count("n") != 0 || base.Count("n") == 0 {
		t.Fatal("ReplaceFacts must replace the layer's relation only")
	}
	if got := base.Dump(); got != before {
		t.Fatal("layer writes reached the base")
	}
	if c := l.Clone(); c.Frozen() || c.Relation("n").frozen || c.Dump() != l.Dump() {
		t.Fatal("Clone of a layer must be a private, equal copy")
	}
}

// TestLayeredDifferential runs generated programs over a private clone and
// over a frozen base, at one worker and at eight: the layered run must
// reproduce the clone run relation for relation, insertion order included,
// and never change the base.
func TestLayeredDifferential(t *testing.T) {
	shrinkShards(t)
	rng := rand.New(rand.NewSource(11))
	compared := 0
	for i := 0; i < 120; i++ {
		src := generateProgram(rng)
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		db := randomInputDB(rng)
		for _, workers := range []int{1, 8} {
			opts := Options{MaxFacts: 200_000, Workers: workers}
			cloned, errClone := Run(prog, db.Clone(), opts)
			frozen := db.Clone().Freeze()
			before := frozen.Dump()
			layered, errLayer := Run(prog, frozen, opts)
			if (errClone == nil) != (errLayer == nil) {
				t.Fatalf("program %d, workers=%d: clone err %v, layered err %v\n%s", i, workers, errClone, errLayer, src)
			}
			if frozen.Dump() != before {
				t.Fatalf("program %d, workers=%d: the run modified the frozen base\n%s", i, workers, src)
			}
			if errClone != nil {
				continue
			}
			sameInsertionOrder(t, fmt.Sprintf("program %d, workers=%d", i, workers), layered.DB, cloned.DB)
			compared++
		}
	}
	if compared < 200 {
		t.Fatalf("only %d layered runs were comparable", compared)
	}
}

// TestLayeredConcurrentIndexBuild runs programs probing one frozen base
// under different bound masks from many goroutines at once, at Workers 1
// and 4, so the first-use index builds of the shared relations race (run it
// under -race: make test-race does). Every run must match its reference
// and the base must not change.
func TestLayeredConcurrentIndexBuild(t *testing.T) {
	shrinkShards(t)
	programs := []string{
		`q(Y) :- e(3,Y).`,                             // mask {0}
		`q(X) :- e(X,7).`,                             // mask {1}
		`q(X,Y) :- e(X,Y), e(Y,X).`,                   // mask {0,1}
		`q(X,Z) :- e(X,Y), e(Y,Z), n(Z).`,             // mask {0}, then n
		`q(X) :- n(X), not e(X,X).`,                   // negation probe, mask {0,1}
		`t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).`, // recursive closure
		`q(X,C) :- e(X,Y), C = count(Y).`,             // stratified aggregate
		`q(Y) :- e(1,X), e(X,Y), e(Y,1).`,             // three masks in one rule
		`q(X) :- n(X), e(X,Y), e(Y,X), X < Y.`,        // join plus condition
		`q(X,Y) :- n(X), n(Y), e(X,Y), not e(Y,X).`,   // negation after a join
		`q(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X), X < Y.`,  // triangles
		`q(X) :- e(X,Y), q2(Y). q2(Y) :- e(Y,Y).`,     // head over a fresh predicate
	}
	base := frozenEdgeDB(5, 60, 400)
	type job struct {
		prog *Program
		want string
	}
	var jobs []job
	for _, src := range programs {
		prog := MustParse(src)
		ref, err := Run(prog, base.Clone(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		jobs = append(jobs, job{prog, ref.DB.Dump()})
	}
	base.Freeze()
	before := base.Dump()

	for _, workers := range []int{1, 4} {
		// A fresh frozen copy per worker count, so its index builds race
		// again from an empty index set.
		shared := base.Clone().Freeze()
		var wg sync.WaitGroup
		errs := make(chan error, 4*len(jobs))
		for rep := 0; rep < 4; rep++ {
			for i, j := range jobs {
				wg.Add(1)
				go func(i int, j job) {
					defer wg.Done()
					res, err := Run(j.prog, shared, Options{Workers: workers})
					if err != nil {
						errs <- fmt.Errorf("program %d: %v", i, err)
						return
					}
					if got := res.DB.Dump(); got != j.want {
						errs <- fmt.Errorf("workers=%d program %d: layered result diverged from the reference", workers, i)
					}
				}(i, j)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if shared.Dump() != before {
			t.Fatalf("workers=%d: concurrent runs modified the frozen base", workers)
		}
	}
}
