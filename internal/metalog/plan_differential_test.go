package metalog

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/pg"
	"repro/internal/vadalog"
)

// The planner differential sweep: every generated query must produce
// byte-identical rows whether the engine runs the written-order program or
// the cost-based transformation (join reordering + demand), at one worker
// and at eight. This is the acceptance gate of the query-planning refactor —
// the planner is a pure program transformation, never a semantics change.

// preparedRows runs a pattern through the planned path: statistics catalog,
// PrepareQuery, QueryDB against a fresh extraction.
func preparedRows(t *testing.T, f *pg.Frozen, pattern string, workers int) ([]QueryRow, *Prepared) {
	t.Helper()
	cat := FromGraph(f)
	st := ComputePlanStats(f, cat)
	prep, err := PrepareQuery(cat, pattern, st)
	if err != nil {
		t.Fatalf("prepare %q: %v", pattern, err)
	}
	if prep.Stale() {
		t.Fatalf("prepare %q: unexpectedly stale against its own catalog", pattern)
	}
	db, err := ExtractFacts(f, cat)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := prep.QueryDB(context.Background(), db, vadalog.Options{Workers: workers, OwnInput: true})
	if err != nil {
		t.Fatalf("planned run %q: %v", pattern, err)
	}
	return rows, prep
}

func TestPlannedDifferentialSweep(t *testing.T) {
	for _, workers := range []int{1, 8} {
		queries, planned := 0, 0
		for seed := int64(0); seed < 10; seed++ {
			g := diffGraph(rand.New(rand.NewSource(seed)))
			f := g.Freeze()
			// The layered leg: every query of the seed runs over one shared
			// frozen extraction, as the serving layer does, so later queries
			// also probe indexes earlier ones built.
			shared, err := ExtractFacts(f, FromGraph(f))
			if err != nil {
				t.Fatal(err)
			}
			shared.Freeze()
			sharedDump := shared.Dump()
			for _, q := range diffQueries {
				queries++
				want, err := Query(f, q, vadalog.Options{Workers: workers})
				if err != nil {
					t.Fatalf("seed %d, query %q: %v", seed, q, err)
				}
				got, prep := preparedRows(t, f, q, workers)
				if prep.Planned() {
					planned++
				}
				if w, g := renderRows(want), renderRows(got); w != g {
					t.Fatalf("workers=%d seed %d, query %q diverged:\nunplanned:\n%s\nplanned:\n%s",
						workers, seed, q, w, g)
				}
				layered, err := prep.QueryDB(context.Background(), shared, vadalog.Options{Workers: workers})
				if err != nil {
					t.Fatalf("layered run %q: %v", q, err)
				}
				if g, l := renderRows(got), renderRows(layered); g != l {
					t.Fatalf("workers=%d seed %d, query %q: layered leg diverged:\nclone:\n%s\nlayered:\n%s",
						workers, seed, q, g, l)
				}
			}
			if shared.Dump() != sharedDump {
				t.Fatalf("workers=%d seed %d: queries modified the shared frozen extraction", workers, seed)
			}
		}
		if queries < 100 {
			t.Fatalf("sweep ran only %d queries; the acceptance gate requires >= 100", queries)
		}
		if planned == 0 {
			t.Fatal("no query of the sweep was actually planned; the differential is vacuous")
		}
		t.Logf("workers=%d: %d queries, %d planned", workers, queries, planned)
	}
}

// TestPreparedProvenanceUsesWrittenOrder proves provenance runs take the
// written-order program even when a planned one exists: proof trees must
// explain the program as written.
func TestPreparedProvenanceUsesWrittenOrder(t *testing.T) {
	g := diffGraph(rand.New(rand.NewSource(3)))
	f := g.Freeze()
	const q = `(x: Company; name: n) [: OWNS] (y: Company)`
	cat := FromGraph(f)
	st := ComputePlanStats(f, cat)
	prep, err := PrepareQuery(cat, q, st)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ExtractFacts(f, cat)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := prep.QueryDB(context.Background(), db, vadalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Query(f, q, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(rows) != renderRows(want) {
		t.Fatal("provenance run diverged from the written-order reference")
	}
}

// TestPreparedStaleDatabase proves a pattern that extends the catalog beyond
// the pre-extracted database reports ErrStaleDatabase from QueryDB, exactly
// like the shared-database path (QueryDBCtx).
func TestPreparedStaleDatabase(t *testing.T) {
	g := diffGraph(rand.New(rand.NewSource(5)))
	f := g.Freeze()
	cat := FromGraph(f)
	st := ComputePlanStats(f, cat)
	db, err := ExtractFacts(f, cat.Clone())
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareQuery(cat, `(x: NoSuchLabel)`, st)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Stale() {
		t.Fatal("pattern over an unknown label should be stale")
	}
	if _, err := prep.QueryDB(context.Background(), db, vadalog.Options{}); err == nil {
		t.Fatal("stale prepared query should refuse the pre-extracted database")
	}
}
