package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fingraph"
)

// The two serving workloads drive a kgserve process built from the commit
// under test, over loopback HTTP, with closed-loop clients: each client
// sends its next request only when the previous one has been answered.

// serveCompanies sizes the served graph (≈300k nodes, ≈311k OWNS edges).
// It is 100k and not 1M companies because a 1M-edge cache miss costs 2–3 s
// and the server then holds ~2.8 GB before two concurrent clones: a run
// would gather too few samples, and the 8 GB host too little headroom.
const serveCompanies = 100_000

// setupSpawns is how many times a run starts the server; setup_s is the
// median time to healthy, and the last server started is the one measured.
const setupSpawns = 3

// readClients is the closed-loop concurrency of serve-read: the host has
// two cores.
const readClients = 2

// compactEvery is how many /mutate batches serve-write sends between two
// /compact calls. A run measures whole cycles, so every run compacts.
const compactEvery = 8

// serveGraph generates the served snapshot and the topology the oracles
// use.
func serveGraph(e *env) (string, *topology, error) {
	path := filepath.Join(e.dir, "serve.snap")
	res, err := ingest(fingraph.DefaultConfig(serveCompanies, e.seed), path, true, nil)
	if err != nil {
		return "", nil, err
	}
	return path, res.topo, nil
}

// spawnMeasured starts the server setupSpawns times with args(i), stopping
// all but the last, and returns every time to healthy with the last server.
func spawnMeasured(ctx context.Context, e *env, args func(i int) ([]string, error)) ([]time.Duration, *serverProc, error) {
	var setups []time.Duration
	for i := 0; ; i++ {
		a, err := args(i)
		if err != nil {
			return nil, nil, err
		}
		p, d, err := startServer(ctx, e.kgserve, a, filepath.Join(e.dir, fmt.Sprintf("kgserve-%d.log", i)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d)
		if i == setupSpawns-1 {
			return setups, p, nil
		}
		p.stop()
	}
}

// answerLog keeps the first answer to every distinct query and fails the
// run when a repeat answers with different bytes.
type answerLog struct {
	mu      sync.Mutex
	first   map[string][]byte
	reqs    map[string]request
	differs error
	hits    int
}

func newAnswerLog() *answerLog {
	return &answerLog{first: map[string][]byte{}, reqs: map[string]request{}}
}

func (l *answerLog) add(req request, r opResult) {
	if !r.ok {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.cache == "hit" {
		l.hits++
	}
	k := req.key()
	prev, seen := l.first[k]
	if !seen {
		l.first[k] = r.body
		l.reqs[k] = req
		return
	}
	if !bytes.Equal(prev, r.body) && l.differs == nil {
		l.differs = fmt.Errorf("query %s answered with different bytes on a repeat", k)
	}
}

// check runs every distinct answer through the oracle.
func (l *answerLog) check(t *topology) error {
	if l.differs != nil {
		return l.differs
	}
	for k, body := range l.first {
		if err := t.checkAnswer(l.reqs[k], body); err != nil {
			return err
		}
	}
	return nil
}

// latencyMetrics adds the median and the tail of a tally under prefix.
func latencyMetrics(m metrics, prefix string, t *tally) {
	lat := ms(t.lat)
	m.set(prefix+"_p50_ms", median(lat), "ms", len(lat))
	if p, ok := tailPercentile(len(lat)); ok {
		m.set(fmt.Sprintf("%s_p%g_ms", prefix, p), percentile(lat, p), "ms", len(lat))
	}
}

func runServeRead(ctx context.Context, e *env) (*outcome, error) {
	snap, topo, err := serveGraph(e)
	if err != nil {
		return nil, err
	}
	setups, srv, err := spawnMeasured(ctx, e, func(int) ([]string, error) {
		return []string{"-snapshot", snap}, nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	cl := newClient(srv.base, requestTimeout)
	if err := warmUp(cl, topo); err != nil {
		return nil, err
	}
	stream := newReadStream(e.seed, queryTargets(topo), true)
	var streamMu sync.Mutex
	answers := newAnswerLog()
	var queries tally
	start := time.Now()
	deadline := start.Add(e.seconds)
	var wg sync.WaitGroup
	for c := 0; c < readClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				streamMu.Lock()
				req := stream.next()
				streamMu.Unlock()
				r := cl.do("POST", "/query", req.body)
				queries.add(r)
				answers.add(req, r)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	out := newOutcome(queries.attempted, queries.failed, queries.firstErr)
	out.check(answers.check(topo))
	m := out.metrics
	m.set("setup_s", median(secs(setups)), "s", len(setups))
	m.set("peak_rss_mb", rss, "MB", 1)
	latencyMetrics(m, "query", &queries)
	m.set("query_per_s", float64(queries.attempted-queries.failed)/elapsed.Seconds(), "1/s", queries.attempted)
	m.set("cache_hit_ratio", float64(answers.hits)/float64(max(1, queries.attempted)), "ratio", queries.attempted)
	out.primary("query_p50_ms", "query_per_s")
	return out, nil
}

// mutateInfo is the part of a /mutate answer the writer reads.
type mutateInfo struct {
	Ops      int              `json:"ops"`
	Assigned map[string]int64 `json:"assigned"`
}

func runServeWrite(ctx context.Context, e *env) (*outcome, error) {
	snap, topo, err := serveGraph(e)
	if err != nil {
		return nil, err
	}
	setups, srv, err := spawnMeasured(ctx, e, func(i int) ([]string, error) {
		walDir := filepath.Join(e.dir, fmt.Sprintf("wal-%d", i))
		compactDir := filepath.Join(e.dir, fmt.Sprintf("compact-%d", i))
		if err := os.MkdirAll(compactDir, 0o755); err != nil {
			return nil, err
		}
		// -wal-sync always is the default, named so that both sides of any
		// comparison run the same fsync policy.
		return []string{"-snapshot", snap, "-wal-dir", walDir, "-wal-sync", "always", "-compact-dir", compactDir}, nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	cl := newClient(srv.base, requestTimeout)
	if err := warmUp(cl, topo); err != nil {
		return nil, err
	}
	targets := queryTargets(topo)
	ws := newWriteStream(e.seed, topo)
	var mutates, compacts, queries tally
	var ackedOps int
	var writeErr error
	stopReader := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stream := newReadStream(e.seed, targets, false)
		for {
			select {
			case <-stopReader:
				return
			default:
			}
			queries.add(cl.do("POST", "/query", stream.next().body))
		}
	}()

	start := time.Now()
	for writeErr == nil {
		for b := 0; b < compactEvery && writeErr == nil; b++ {
			ops := ws.next()
			body, err := mutateBody(ops)
			if err != nil {
				writeErr = err
				break
			}
			r := cl.do("POST", "/mutate", body)
			mutates.add(r)
			if !r.ok {
				ws.drop(ops)
				continue
			}
			var info mutateInfo
			if err := json.Unmarshal(r.body, &info); err != nil {
				writeErr = fmt.Errorf("decoding /mutate answer: %w", err)
				break
			}
			writeErr = ws.ack(ops, info.Assigned)
			ackedOps += info.Ops
		}
		compacts.add(cl.do("POST", "/compact", nil))
		if time.Since(start) >= e.seconds {
			break
		}
	}
	elapsed := time.Since(start)
	close(stopReader)
	wg.Wait()
	if writeErr != nil {
		return nil, writeErr
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// The oracle runs after the final compaction, against the topology with
	// every acknowledged batch applied: popular targets plus companies the
	// batches gave new stakes.
	oracle := newReadStream(e.seed+1, targets, false)
	var checkErr error
	for _, req := range append(oracleSample(oracle, 4), ws.touchedRequests(4)...) {
		r := cl.do("POST", "/query", req.body)
		if !r.ok {
			checkErr = fmt.Errorf("oracle query %s: %v", req.key(), r.err)
			break
		}
		if checkErr = topo.checkAnswer(req, r.body); checkErr != nil {
			break
		}
	}

	attempted := mutates.attempted + compacts.attempted + queries.attempted
	failed := mutates.failed + compacts.failed + queries.failed
	out := newOutcome(attempted, failed, firstErr(&mutates, &compacts, &queries))
	out.check(checkErr)
	m := out.metrics
	m.set("setup_s", median(secs(setups)), "s", len(setups))
	m.set("peak_rss_mb", rss, "MB", 1)
	latencyMetrics(m, "mutate", &mutates)
	m.set("mutate_ops_per_s", float64(ackedOps)/elapsed.Seconds(), "1/s", mutates.attempted)
	m.set("compact_s", median(secs(compacts.lat)), "s", compacts.attempted)
	latencyMetrics(m, "query", &queries)
	m.set("query_per_s", float64(queries.attempted-queries.failed)/elapsed.Seconds(), "1/s", queries.attempted)
	out.primary("mutate_p50_ms", "mutate_ops_per_s")
	return out, nil
}

// warmUpQueries is how many queries run before the timed window, so that
// the server's heap has grown and the snapshot's pages are resident.
const warmUpQueries = 4

// warmUp sends closure queries about companies that own no Business: they
// cost a full evaluation, but no measured request asks the same, so the
// result cache stays cold for the timed window.
func warmUp(cl *client, topo *topology) error {
	n := 0
	for _, id := range topo.companies {
		if n == warmUpQueries {
			break
		}
		if len(topo.out[id]) > 0 {
			continue
		}
		n++
		if r := cl.do("POST", "/query", queryBody(closureQuery(topo.code[id]))); !r.ok {
			return fmt.Errorf("warm-up query: %w", r.err)
		}
	}
	return nil
}

// oracleSample draws n distinct closure requests.
func oracleSample(s *readStream, n int) []request {
	seen := map[string]bool{}
	var out []request
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		r := s.next()
		if !seen[r.key()] {
			seen[r.key()] = true
			out = append(out, r)
		}
	}
	return out
}

func firstErr(ts ...*tally) error {
	for _, t := range ts {
		if t.firstErr != nil {
			return t.firstErr
		}
	}
	return nil
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
