package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
)

// Every generation's fact database is frozen and shared: queries derive
// into per-query layers, /mutate shares the relations a batch leaves
// untouched, and no serving path writes a snapshot's facts.

// assertFrozenSnapshot fails unless the serving generation's facts are
// frozen, and returns their dump.
func assertFrozenSnapshot(t *testing.T, s *Server, stage string) string {
	t.Helper()
	db := s.current().db
	if !db.Frozen() {
		t.Fatalf("%s: the snapshot's fact database is not frozen", stage)
	}
	return db.Dump()
}

// exerciseReads evaluates a query through /query and through /explain with
// run:true (a no-op with the planner off).
func exerciseReads(t *testing.T, s *Server, q string) {
	t.Helper()
	queryRows(t, s, q)
	if w := postJSON(t, s.Handler(), "/explain", fmt.Sprintf(`{"query":%q,"run":true}`, q)); w.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", w.Code, w.Body.String())
	}
}

func TestSnapshotFactsFrozenAndShared(t *testing.T) {
	const q = `(x: Business; fiscalCode: c) [: OWNS] (y: Business)`
	for _, plannerOff := range []bool{false, true} {
		t.Run(fmt.Sprintf("plannerOff=%v", plannerOff), func(t *testing.T) {
			walDir := filepath.Join(t.TempDir(), "wal")
			cfg := Config{WALDir: walDir, PlannerOff: plannerOff, CompactDir: t.TempDir()}
			s, err := NewFromGraph(cfg, mutateBase(t))
			if err != nil {
				t.Fatal(err)
			}
			before := assertFrozenSnapshot(t, s, "build")
			exerciseReads(t, s, q)
			if got := assertFrozenSnapshot(t, s, "build"); got != before {
				t.Fatal("queries modified the snapshot's facts")
			}

			// An edge-only batch: the Business relation is untouched and
			// must be shared with the previous generation, not copied.
			prev := s.current().db
			info := mustMutate(t, s, `{"ops":[{"op":"add_edge","from":{"id":2},"to":{"id":1},"label":"OWNS","props":{"percentage":{"kind":"float","float":0.3}}}]}`)
			if !info.Incremental {
				t.Fatal("edge-only batch should take the incremental path")
			}
			cur := s.current().db
			if cur.Relation("Business") != prev.Relation("Business") {
				t.Fatal("untouched relation Business was copied across generations")
			}
			if cur.Relation("OWNS") == prev.Relation("OWNS") {
				t.Fatal("touched relation OWNS was not replaced")
			}
			before = assertFrozenSnapshot(t, s, "mutate")
			exerciseReads(t, s, q)
			if got := assertFrozenSnapshot(t, s, "mutate"); got != before {
				t.Fatal("queries modified the mutated generation's facts")
			}

			// A batch that grows the catalog takes the re-extraction path.
			if info := mustMutate(t, s, `{"ops":[{"op":"add_node","labels":["Auditor"]}]}`); info.Incremental {
				t.Fatal("a new label should force re-extraction")
			}
			assertFrozenSnapshot(t, s, "mutate fallback")

			if w := postJSON(t, s.Handler(), "/compact", ``); w.Code != http.StatusOK {
				t.Fatalf("compact: %d %s", w.Code, w.Body.String())
			}
			assertFrozenSnapshot(t, s, "compact")
			mustMutate(t, s, walBatch("replayed"))
			want := assertFrozenSnapshot(t, s, "post-compact mutate")
			shutdownServer(t, s)

			// Recovery replays the log over the compacted base.
			s2, err := NewFromGraph(cfg, mutateBase(t))
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownServer(t, s2)
			if got := assertFrozenSnapshot(t, s2, "wal replay"); got != want {
				t.Fatal("replayed facts differ from the pre-restart generation")
			}
			exerciseReads(t, s2, q)
			if got := assertFrozenSnapshot(t, s2, "wal replay"); got != want {
				t.Fatal("queries modified the replayed generation's facts")
			}
		})
	}
}
