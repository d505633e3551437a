package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one measured figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metrics holds a run's figures by name.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, samples int) {
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted int
	failed    int
	failure   error // the first failed operation's error
	wrong     error // the first oracle mismatch
	metrics   metrics
	spans     []Span
}

func newOutcome(attempted, failed int, failure error) *outcome {
	return &outcome{attempted: attempted, failed: failed, failure: failure, metrics: metrics{}}
}

// check records an oracle verdict; the first mismatch makes the run wrong.
func (o *outcome) check(err error) {
	if err != nil && o.wrong == nil {
		o.wrong = err
	}
}

// primary names the workload's main latency and rate figures, which the
// workload-neutral metrics op_p50_ms and ops_per_s report: the latency of
// a query, a mutation batch, the §6 pipeline per 10k CONTROLS pairs it
// derives, or one whole ingest, and queries, acknowledged mutation ops,
// CONTROLS pairs or ingested edges per second.
func (o *outcome) primary(p50, rate string) {
	o.metrics.set("op_p50_ms", o.metrics[p50].Value, "ms", o.metrics[p50].Samples)
	o.metrics.set("ops_per_s", o.metrics[rate].Value, "1/s", o.metrics[rate].Samples)
}

// envInfo describes the machine and build a run measured.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	RAMMB      int    `json:"ram_mb"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv(root string) envInfo {
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		RAMMB:      memTotalMB(),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
	}
}

func memTotalMB() int {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "MemTotal:"); ok {
			kb, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(rest), " kB"))
			return kb / 1024
		}
	}
	return 0
}

// cpuTimes reads the aggregate CPU line of /proc/stat: the jiffies the
// host stole from this machine's CPUs, and all jiffies.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// commitOf resolves the checkout's HEAD commit by reading .git directly;
// a checkout without .git (an exported tree) reports BENCH_COMMIT from the
// environment, or "unknown".
func commitOf(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		if c := os.Getenv("BENCH_COMMIT"); c != "" {
			return c
		}
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

// runRecord is the full result file of one run: every figure by name, the
// machine it ran on, and the line the run printed last.
type runRecord struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Trace     bool       `json:"trace"`
	Seconds   int        `json:"seconds"`
	Env       envInfo    `json:"env"`
	Correct   bool       `json:"correct"`
	Mismatch  string     `json:"mismatch,omitempty"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Failure   string     `json:"first_failure,omitempty"`
	Metrics   metrics    `json:"metrics"`
	Result    resultLine `json:"result"`
}

// lineValue is one figure of the result line.
type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON object every run prints last.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

// printTable writes every metric of a record by name, with its unit.
func printTable(w io.Writer, r *runRecord) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v seconds=%d commit=%s nproc=%d gomaxprocs=%d ram_mb=%d %s\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Env.Commit, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.RAMMB, r.Env.GoVersion)
	fmt.Fprintf(w, "# correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	if r.Mismatch != "" {
		fmt.Fprintf(w, " mismatch=%q", r.Mismatch)
	}
	if r.Failure != "" {
		fmt.Fprintf(w, " first_failure=%q", r.Failure)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
}

func writeRecord(path string, r *runRecord) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecords(dir string) ([]*runRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*runRecord
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}
