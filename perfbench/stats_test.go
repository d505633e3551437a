package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // rank 9990, 10 beyond
		{9999, 99, true},    // p99.9 leaves 9 beyond
		{1000, 99, true},
		{999, 90, true},
		{100, 90, true}, // rank 90, 10 beyond
		{99, 75, true},  // p90 rank 90 leaves 9
		{40, 75, true},  // rank 30, 10 beyond
		{39, 50, true},
		{20, 50, true}, // rank 10, 10 beyond
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-nearestRank(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond it", c.n, p, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 9},
		{[]float64{3.1, 9.7, 2.2, 8.8, 4.4, 6.1, 7.3}, 3.1, 8.8},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, p := range parent {
		faster[i] = p * 0.8
		slower[i] = p * 1.2
	}
	if v := judge(lower, parent, faster); v.status != "improved" {
		t.Errorf("20%% faster: %s", v.status)
	}
	if v := judge(lower, parent, slower); v.status != "regressed" {
		t.Errorf("20%% slower: %s", v.status)
	}
	if v := judge(lower, parent, parent); v.status != "no regression" {
		t.Errorf("identical: %s", v.status)
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if v := judge(lower, noisy, parent); v.status != "unresolved (parent spread exceeds bound)" {
		t.Errorf("noisy parent: %s", v.status)
	}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	if v := judge(higher, parent, slower); v.status != "improved" {
		t.Errorf("higher is better, 20%% more: %s", v.status)
	}
	if v := judge(lower, parent[:9], faster[:9]); v.status != "too few pairs (9 < 10)" {
		t.Errorf("nine pairs: %s", v.status)
	}
}

// records makes one correct untraced serve-read record per seed 1..n with
// op_p50_ms = base + seed%3, each attempting 100 operations.
func records(n int, base float64) []*runRecord {
	var out []*runRecord
	for s := 1; s <= n; s++ {
		out = append(out, &runRecord{Workload: "serve-read", Seed: int64(s), Correct: true, Attempted: 100,
			Metrics: metrics{"op_p50_ms": {Value: base + float64(s%3), Unit: "ms"}}})
	}
	return out
}

func TestCompareRecordsFailuresAndWrongOutputs(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
	}{"serve-read"})

	c := compareRecords(sp, records(10, 100), records(10, 80))
	if len(c.verdicts) != 1 || c.verdicts[0].status != "improved" || c.failed() {
		t.Fatalf("clean faster change: %+v, failed=%v", c.verdicts, c.failed())
	}

	wrong := records(10, 80)
	wrong[3].Correct, wrong[3].Mismatch = false, "closure differs"
	c = compareRecords(sp, records(10, 100), wrong)
	if len(c.wrong) != 1 || c.wrong[0].side != "change" || !c.failed() {
		t.Fatalf("wrong change record: left out %+v, failed=%v", c.wrong, c.failed())
	}
	if v := c.verdicts[0]; v.pairs != 9 || v.status != "too few pairs (9 < 10)" {
		t.Errorf("wrong change record still paired: %d pairs, %s", v.pairs, v.status)
	}

	failing := records(10, 80)
	failing[5].Failed = 2
	c = compareRecords(sp, records(10, 100), failing)
	if v := c.verdicts[0]; v.status != "not improved (the change fails more operations)" || !c.failed() {
		t.Errorf("change failing more operations: %s, failed=%v", v.status, c.failed())
	}
	if len(c.failures) != 1 || c.failures[0].change != 0.002 || c.failures[0].parent != 0 {
		t.Errorf("failure shares: %+v", c.failures)
	}

	// A wrong parent record is reported but does not fail the change.
	parent := records(11, 100)
	parent[10].Correct = false
	c = compareRecords(sp, parent, records(10, 80))
	if len(c.wrong) != 1 || c.wrong[0].side != "parent" || c.failed() {
		t.Errorf("wrong parent record: %+v, failed=%v", c.wrong, c.failed())
	}
}
