package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The compare command judges a change against its parent from two
// directories of untraced result records, run with the same benchmark code
// and settings. A record whose outputs failed their oracle is left out and
// reported; the rest pair up by (workload, seed). For every end-to-end
// metric and workload it applies:
//
//   - the gain rule: at least minPairs pairs, the change wins at least
//     winShare of them (ties count for neither side), and the medians
//     differ by more than the parent's interquartile range;
//   - the no-regression bound of BENCHMARK.json: the change's median may be
//     worse than the parent's by at most bound × the parent's median;
//   - a metric whose parent runs spread (IQR / median) wider than its bound
//     is unresolved, not unchanged, unless every change run beats every
//     parent run;
//   - a gain does not count on a workload where the change fails a larger
//     share of its operations (failed / attempted) than the parent.
//
// It exits non-zero when a metric regressed, when a change record is wrong,
// or when the change fails more operations than the parent.

const (
	minPairs = 10
	winShare = 0.9
)

// verdict is the judgement of one (workload, metric) pair.
type verdict struct {
	workload, metric     string
	pairs, wins          int
	parentMed, changeMed float64
	parentIQR            float64
	spread               float64
	bound                float64
	status               string
}

// judge applies the rules to paired values (parent[i] pairs change[i]).
func judge(m specMetric, parent, change []float64) verdict {
	v := verdict{metric: m.Name, pairs: len(parent), bound: m.Bound}
	better := func(a, b float64) bool { // a beats b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	v.parentMed, v.changeMed = median(parent), median(change)
	q1, q3 := quartiles(parent)
	v.parentIQR = q3 - q1
	if v.parentMed != 0 {
		v.spread = v.parentIQR / v.parentMed
	}
	worse := (v.changeMed - v.parentMed) / v.parentMed
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := len(parent) > 0
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	diff := v.changeMed - v.parentMed
	if diff < 0 {
		diff = -diff
	}
	switch {
	case v.pairs < minPairs:
		v.status = fmt.Sprintf("too few pairs (%d < %d)", v.pairs, minPairs)
	case float64(v.wins) >= winShare*float64(v.pairs) && diff > v.parentIQR && better(v.changeMed, v.parentMed):
		v.status = "improved"
	case v.spread > m.Bound && !allBetter:
		v.status = "unresolved (parent spread exceeds bound)"
	case worse > m.Bound:
		v.status = "regressed"
	default:
		v.status = "no regression"
	}
	return v
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <parent-results-dir> <change-results-dir>")
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	parent, err := readRecords(args[0])
	if err == nil && len(parent) == 0 {
		err = fmt.Errorf("no records in %s", filepath.Clean(args[0]))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	c := compareRecords(sp, parent, change)
	for _, w := range c.wrong {
		fmt.Printf("left out, outputs wrong: %s %s seed %d: %s\n", w.side, w.rec.Workload, w.rec.Seed, w.rec.Mismatch)
	}
	for _, f := range c.failures {
		fmt.Printf("%s: change fails %.4g of its operations, parent %.4g; no gain counts\n", f.workload, f.change, f.parent)
	}
	fmt.Printf("%-12s %-12s %5s %5s %14s %14s %10s %7s %6s  %s\n",
		"workload", "metric", "pairs", "wins", "parent_median", "change_median", "parent_iqr", "spread", "bound", "verdict")
	for _, v := range c.verdicts {
		fmt.Printf("%-12s %-12s %5d %5d %14.6g %14.6g %10.4g %7.3f %6.2f  %s\n",
			v.workload, v.metric, v.pairs, v.wins, v.parentMed, v.changeMed, v.parentIQR, v.spread, v.bound, v.status)
	}
	if c.failed() {
		return 1
	}
	return 0
}

// wrongRecord is a record left out of the comparison because its outputs
// failed their oracle.
type wrongRecord struct {
	side string // "parent" or "change"
	rec  *runRecord
}

// failureGap is a workload on which the change fails a larger share of its
// operations than the parent.
type failureGap struct {
	workload       string
	parent, change float64
}

// comparison is everything compare reports.
type comparison struct {
	verdicts []verdict
	wrong    []wrongRecord
	failures []failureGap
}

// failed tells whether the change must not land: a metric regressed, a
// change record is wrong, or the change fails more operations.
func (c *comparison) failed() bool {
	for _, v := range c.verdicts {
		if v.status == "regressed" {
			return true
		}
	}
	for _, w := range c.wrong {
		if w.side == "change" {
			return true
		}
	}
	return len(c.failures) > 0
}

// failShare is failed / attempted over the untraced records of a workload.
func failShare(recs []*runRecord, workload string) float64 {
	var failed, attempted int
	for _, r := range recs {
		if !r.Trace && r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return float64(failed) / float64(max(1, attempted))
}

// compareRecords pairs the correct untraced records by (workload, seed)
// and judges every end-to-end metric of every workload present on both
// sides.
func compareRecords(sp *spec, parent, change []*runRecord) *comparison {
	c := &comparison{}
	type key struct {
		workload string
		seed     int64
	}
	index := func(side string, recs []*runRecord) map[key]*runRecord {
		out := map[key]*runRecord{}
		for _, r := range recs {
			switch {
			case r.Trace:
			case !r.Correct:
				c.wrong = append(c.wrong, wrongRecord{side, r})
			default:
				out[key{r.Workload, r.Seed}] = r
			}
		}
		return out
	}
	pi, ci := index("parent", parent), index("change", change)
	var keys []key
	for k := range pi {
		if _, ok := ci[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	for _, w := range sp.Workloads {
		pf, cf := failShare(parent, w.Name), failShare(change, w.Name)
		if cf > pf {
			c.failures = append(c.failures, failureGap{w.Name, pf, cf})
		}
		for _, m := range sp.EndToEnd {
			var pv, cv []float64
			for _, k := range keys {
				if k.workload != w.Name {
					continue
				}
				p, okp := pi[k].Metrics[m.Name]
				q, okc := ci[k].Metrics[m.Name]
				if okp && okc {
					pv, cv = append(pv, p.Value), append(cv, q.Value)
				}
			}
			if len(pv) == 0 {
				continue
			}
			v := judge(m, pv, cv)
			v.workload = w.Name
			if cf > pf && v.status == "improved" {
				v.status = "not improved (the change fails more operations)"
			}
			c.verdicts = append(c.verdicts, v)
		}
	}
	return c
}
