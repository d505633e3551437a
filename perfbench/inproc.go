package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/fingraph"
	"repro/internal/instance"
	"repro/internal/metalog"
	"repro/internal/snapfile"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
)

// The materialize and ingest workloads call the library directly. Each
// repetition runs in a fresh child process of this program, so that the
// child's peak RSS is the footprint of one pipeline run and nothing else.
//
// Every materialize repetition gets an instance of its own, seeded from the
// run's seed and the repetition: how much control a pyramid-heavy instance
// derives varies widely from one generated instance to the next (90k to
// 165k pairs at 3000 companies), so a run that measured one instance would
// report that instance's size rather than the pipeline's speed. For the
// same reason the workload's unit of work is a fixed amount of output,
// 10k CONTROLS pairs, rather than one instance of whatever size. The pair
// count is fixed by the input (the oracle checks it against the native
// algorithm), unlike the engine's count of derived facts, which includes
// every intermediate running sum and so moves with how the engine
// evaluates.

// matCompanies sizes the §6 instance: ≈19k entities once pyramids are
// added.
const matCompanies = 3000

// ingestCompanies sizes the streamed graph: ≈3M OWNS edges.
const ingestCompanies = 960_000

// matSetups is how many times one materialize repetition sets up.
const matSetups = 200

// engineWorkers is the reasoning parallelism of the §6 pipeline, one per
// core of the benchmark host.
const engineWorkers = 2

// sigma is the E14 intensional component: ownership aggregated through
// Share nodes, then control over Business stakes with monotonic sums.
const sigma = `
	(p: Person) [: HOLDS; right: "ownership", percentage: hp] (s: Share; percentage: sp)
		[: BELONGS_TO] (y: Business),
		q = hp * sp, w = sum(q)
		-> (p) [o: OWNS; percentage: w] (y).
	(x: Business) -> (x) [c: CONTROLS] (x).
	(x: Business) [: CONTROLS] (z: Business) [: OWNS; percentage: w] (y: Business),
		v = sum(w, <z>), v > 0.5
		-> (x) [c: CONTROLS] (y).
`

// matConfig is the pyramid-heavy generator configuration of the §6
// instance: deep majority chains are what make control expensive.
func matConfig(seed int64, companies int) fingraph.Config {
	cfg := fingraph.DefaultConfig(companies, seed)
	cfg.PyramidFraction = 0.4
	cfg.PyramidDepth = 25
	return cfg
}

// childResult is what one child repetition reports on its standard output.
type childResult struct {
	SetupNS  int64  `json:"setup_ns"`
	RunNS    int64  `json:"run_ns"`
	Items    int    `json:"items"` // entities materialized, or edges ingested
	Nodes    int    `json:"nodes,omitempty"`
	LoadNS   int64  `json:"load_ns,omitempty"`
	ReasonNS int64  `json:"reason_ns,omitempty"`
	FlushNS  int64  `json:"flush_ns,omitempty"`
	Pairs    int    `json:"pairs,omitempty"`
	Derived  int    `json:"derived,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Mismatch string `json:"mismatch,omitempty"`
	peakMB   float64
}

// childMain runs one repetition: perfbench child <materialize|ingest>
// --seed n --dir d.
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench child: need materialize or ingest")
		return 2
	}
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	dir := fs.String("dir", ".", "scratch directory")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	var res *childResult
	var err error
	switch args[0] {
	case "materialize":
		res, err = materializeOnce(*seed)
	case "ingest":
		res, err = ingestOnce(*seed, filepath.Join(*dir, "ingest.snap"))
	default:
		err = fmt.Errorf("unknown child %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// materializeOnce runs Algorithm 2 once on a fresh dictionary and checks
// the derived control pairs against the native worklist algorithm.
func materializeOnce(seed int64) (*childResult, error) {
	topo := fingraph.GenerateTopology(matConfig(seed, matCompanies))
	data := topo.CompanyKG()

	// Set-up: the dictionary build plus the σ translation, repeated because
	// one takes well under a millisecond; the run keeps the last dictionary.
	// The generator's garbage is collected first, so that no collection of
	// it runs during the timed set-ups.
	runtime.GC()
	var d *instance.Dictionary
	var prog *metalog.Program
	setups := make([]float64, matSetups)
	for i := range setups {
		t0 := time.Now()
		var err error
		if d, err = instance.NewDictionary(supermodel.CompanyKG()); err != nil {
			return nil, err
		}
		if prog, err = metalog.Parse(sigma); err != nil {
			return nil, err
		}
		if _, err := metalog.Translate(prog, instance.CatalogFromSchema(d.Schema)); err != nil {
			return nil, err
		}
		setups[i] = float64(time.Since(t0))
	}
	setup := time.Duration(median(setups))

	t1 := time.Now()
	res, err := instance.Materialize(d, instance.PGSource{Data: data}, prog, 1, vadalog.Options{Workers: engineWorkers})
	if err != nil {
		return nil, err
	}
	run := time.Since(t1)

	out := &childResult{SetupNS: setup.Nanoseconds(), RunNS: run.Nanoseconds(), Items: len(res.Loaded.Entities),
		LoadNS: res.LoadDuration.Nanoseconds(), ReasonNS: res.ReasonDuration.Nanoseconds(), FlushNS: res.FlushDuration.Nanoseconds(),
		Derived: res.RunStats.FactsDerived}
	out.Pairs, err = checkControl(topo, data, res.Loaded, res.Derived)
	if err != nil {
		out.Mismatch = err.Error()
	}
	return out, nil
}

// ingestOnce streams the ingest graph into a snapshot at path.
func ingestOnce(seed int64, path string) (*childResult, error) {
	res, err := ingest(fingraph.DefaultConfig(ingestCompanies, seed), path, false, nil)
	if err != nil {
		return nil, err
	}
	return &childResult{SetupNS: res.firstBatch.Nanoseconds(), RunNS: res.total.Nanoseconds(),
		Items: res.edges, Nodes: res.nodes, Bytes: res.bytes}, nil
}

// repeatChild runs child repetitions until the run's time is up (at least
// one), recording each child's peak RSS from its resource usage. seedOf
// gives the input seed of each repetition.
func repeatChild(ctx context.Context, e *env, kind string, seedOf func(rep int) int64) ([]*childResult, error) {
	var out []*childResult
	start := time.Now()
	for len(out) == 0 || time.Since(start) < e.seconds {
		seed := strconv.FormatInt(seedOf(len(out)), 10)
		cmd := exec.CommandContext(ctx, e.self, "child", kind, "--seed", seed, "--dir", e.dir)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("child %s: %w", kind, err)
		}
		var r childResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("child %s answered %q: %w", kind, b, err)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no resource usage for the child")
		}
		r.peakMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
		out = append(out, &r)
		if kind == "ingest" {
			if err := checkIngest(e, &r); err != nil {
				r.Mismatch = err.Error()
			}
		}
	}
	return out, nil
}

// checkIngest reopens the child's snapshot and compares its counts with
// the generator's.
func checkIngest(e *env, r *childResult) error {
	path := filepath.Join(e.dir, "ingest.snap")
	defer os.Remove(path)
	sf, err := snapfile.Open(path)
	if err != nil {
		return fmt.Errorf("reopening the ingested snapshot: %w", err)
	}
	defer sf.Close()
	if n, m := sf.Frozen.NumNodes(), sf.Frozen.NumEdges(); n != r.Nodes || m != r.Items {
		return fmt.Errorf("snapshot holds %d nodes, %d edges; the generator streamed %d, %d", n, m, r.Nodes, r.Items)
	}
	return nil
}

// childMetrics fills the figures common to both in-process workloads.
func childMetrics(kind string, reps []*childResult) *outcome {
	out := newOutcome(len(reps), 0, nil)
	var setup, run, peak []float64
	for _, r := range reps {
		setup = append(setup, time.Duration(r.SetupNS).Seconds())
		run = append(run, durMs(time.Duration(r.RunNS)))
		peak = append(peak, r.peakMB)
		if r.Mismatch != "" {
			out.check(errors.New(r.Mismatch))
		}
	}
	m := out.metrics
	n := len(reps)
	m.set("setup_s", median(setup), "s", n)
	m.set("peak_rss_mb", median(peak), "MB", n)
	m.set(kind+"_p50_ms", median(run), "ms", n)
	return out
}

func runMaterialize(ctx context.Context, e *env) (*outcome, error) {
	reps, err := repeatChild(ctx, e, "materialize", func(rep int) int64 { return e.seed*1000 + int64(rep) })
	if err != nil {
		return nil, err
	}
	out := childMetrics("materialize", reps)
	var load, reason, flush, entities, pairs, derived, per10k []float64
	var pairSum, runNS int64
	for _, r := range reps {
		per10k = append(per10k, durMs(time.Duration(r.RunNS))*1e4/float64(max(1, r.Pairs)))
		load = append(load, time.Duration(r.LoadNS).Seconds())
		reason = append(reason, time.Duration(r.ReasonNS).Seconds())
		flush = append(flush, time.Duration(r.FlushNS).Seconds())
		entities = append(entities, float64(r.Items))
		pairs = append(pairs, float64(r.Pairs))
		derived = append(derived, float64(r.Derived))
		pairSum += int64(r.Pairs)
		runNS += r.RunNS
	}
	m := out.metrics
	n := len(reps)
	m.set("materialize_s", m["materialize_p50_ms"].Value/1000, "s", n)
	m.set("materialize_ms_per_10k_pairs", median(per10k), "ms", n)
	m.set("materialize_pairs_per_s", float64(pairSum)/time.Duration(runNS).Seconds(), "1/s", n)
	m.set("materialize_load_s", median(load), "s", n)
	m.set("materialize_reason_s", median(reason), "s", n)
	m.set("materialize_flush_s", median(flush), "s", n)
	m.set("entities", median(entities), "count", n)
	m.set("control_pairs", median(pairs), "count", n)
	m.set("derived_facts", median(derived), "count", n)
	out.primary("materialize_ms_per_10k_pairs", "materialize_pairs_per_s")
	return out, nil
}

func runIngest(ctx context.Context, e *env) (*outcome, error) {
	reps, err := repeatChild(ctx, e, "ingest", func(int) int64 { return e.seed })
	if err != nil {
		return nil, err
	}
	out := childMetrics("ingest", reps)
	var rate []float64
	for _, r := range reps {
		rate = append(rate, float64(r.Items)/time.Duration(r.RunNS).Seconds())
	}
	m := out.metrics
	n := len(reps)
	m.set("ingest_edges_per_s", median(rate), "1/s", n)
	m.set("edges", float64(reps[0].Items), "count", n)
	m.set("snapshot_mb", float64(reps[0].Bytes)/(1<<20), "MB", n)
	out.primary("ingest_p50_ms", "ingest_edges_per_s")
	return out, nil
}
