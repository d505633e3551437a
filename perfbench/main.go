// Command perfbench is the repository's end-to-end and per-layer benchmark.
// README.md beside this file describes the workloads, the metrics and
// which layer figure should move which end-to-end figure.
//
// Run one workload (from the repository root, through run.sh, which builds
// kgserve and this program from the checkout first):
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//
// The run prints every figure by name with its unit, writes a full result
// record under .bench_build/results, and prints as its last line the JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 1 it
// runs the traced pass instead and reports the per-layer figures.
//
// Two further commands read result records:
//
//	perfbench report <dir>...          every figure of every record, by name
//	perfbench compare <parent> <change> the §8 gain rule and the no-regression bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spec is the part of BENCHMARK.json the program reads: the metric names
// of the result line and their regression bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// env is what a workload run needs to know about its surroundings.
type env struct {
	root    string // the checkout
	dir     string // this run's scratch directory, removed at exit
	kgserve string // the kgserve binary under test
	self    string // this program, for in-process child runs
	seed    int64
	seconds time.Duration
}

var workloads = map[string]func(context.Context, *env) (*outcome, error){
	"serve-read":  runServeRead,
	"serve-write": runServeWrite,
	"materialize": runMaterialize,
	"ingest":      runIngest,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "report":
			os.Exit(reportMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-read, serve-write, materialize or ingest")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer figures")
	kgserve := fs.String("kgserve", ".bench_build/bin/kgserve", "the kgserve binary under test")
	results := fs.String("results", ".bench_build/results", "directory for result records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := run(*workload, *seed, *seconds, *trace, *kgserve, *results); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func run(workload string, seed int64, seconds, trace int, kgserve, results string) error {
	traced := trace == 1
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	sp, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := filepath.Abs(kgserve)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("kgserve binary: %w", err)
	}
	work := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{root: root, dir: dir, kgserve: bin, self: self, seed: seed, seconds: time.Duration(seconds) * time.Second}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	steal0, total0 := cpuTimes()
	var out *outcome
	if traced {
		out, err = runTraced(ctx, e, workload)
	} else {
		out, err = workloads[workload](ctx, e)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}

	rec := &runRecord{
		Workload: workload, Seed: seed, Trace: traced, Seconds: seconds,
		Env: currentEnv(root), Correct: out.wrong == nil,
		Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics,
	}
	if out.wrong != nil {
		rec.Mismatch = out.wrong.Error()
	}
	if out.failure != nil {
		rec.Failure = out.failure.Error()
	}
	rec.Metrics.set("error_rate", float64(out.failed)/float64(max(1, out.attempted)), "ratio", out.attempted)
	// On a virtual machine the host may run other guests on this one's
	// CPUs; the share it took during the run explains much of the
	// run-to-run spread of wall-clock figures.
	if steal1, total1 := cpuTimes(); total1 > total0 {
		rec.Metrics.set("host_steal_pct", 100*float64(steal1-steal0)/float64(total1-total0), "%", 1)
	}
	names := sp.EndToEnd
	if traced {
		names = sp.PerLayer
	}
	rec.Result = resultLine{Correct: rec.Correct, Attempted: max(1, out.attempted), Failed: out.failed,
		Metrics: map[string]lineValue{}}
	for _, m := range names {
		v, ok := rec.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s measured no %s", workload, m.Name)
		}
		rec.Result.Metrics[m.Name] = lineValue{Value: v.Value, Unit: m.Unit}
	}

	base := filepath.Join(results, fmt.Sprintf("%s-trace%d-seed%d-%d", workload, trace, seed, time.Now().UnixNano()))
	if err := writeRecord(base+".json", rec); err != nil {
		return err
	}
	if traced {
		if err := writeSpans(base+".spans.json", out.spans); err != nil {
			return err
		}
	}
	printTable(os.Stdout, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func reportMain(dirs []string) int {
	if len(dirs) == 0 {
		dirs = []string{".bench_build/results"}
	}
	var recs []*runRecord
	for _, d := range dirs {
		r, err := readRecords(d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench report:", err)
			return 1
		}
		recs = append(recs, r...)
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Workload != recs[j].Workload {
			return recs[i].Workload < recs[j].Workload
		}
		return recs[i].Seed < recs[j].Seed
	})
	for _, r := range recs {
		printTable(os.Stdout, r)
		fmt.Println()
	}
	return 0
}
