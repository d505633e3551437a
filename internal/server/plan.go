package server

import (
	"container/list"
	"context"
	"net/http"
	"sync"

	"repro/internal/metalog"
	"repro/internal/obs"
	"repro/internal/plan"
)

// The serving side of the cost-based query planner (internal/plan,
// DESIGN.md §15): compiled queries — parsed, translated and planned against
// the generation's statistics catalog — are cached per (generation,
// canonical pattern), so the per-request work of the hot path is the engine
// run alone. A snapshot swap invalidates implicitly, exactly like the
// result cache: stale generations stop being asked for and age out.

// planKey identifies one compiled plan.
type planKey struct {
	gen   uint64
	query string
}

// planCache is a mutex-guarded LRU of metalog.Prepared entries. Prepared
// queries are immutable and safe for concurrent use, so hits share one
// entry across requests.
type planCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List
	items map[planKey]*list.Element
}

type planEntry struct {
	key  planKey
	prep *metalog.Prepared
}

func newPlanCache(capacity int) *planCache {
	c := &planCache{cap: capacity}
	if capacity > 0 {
		c.order = list.New()
		c.items = make(map[planKey]*list.Element, capacity)
	}
	return c
}

func (c *planCache) get(k planKey) (*metalog.Prepared, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*planEntry).prep, true
}

func (c *planCache) put(k planKey, p *metalog.Prepared) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		el.Value.(*planEntry).prep = p
		return
	}
	c.items[k] = c.order.PushFront(&planEntry{key: k, prep: p})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*planEntry).key)
	}
}

func (c *planCache) len() int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// preparedFor returns the compiled plan for a pattern under a snapshot,
// consulting the plan cache. The second return reports the cache
// disposition ("hit" or "miss").
func (s *Server) preparedFor(sn *snapshot, query string) (*metalog.Prepared, string, error) {
	key := planKey{gen: sn.gen, query: canonicalQuery(query)}
	if p, ok := s.plans.get(key); ok {
		mPlanHits.Add(1)
		return p, "hit", nil
	}
	mPlanMisses.Add(1)
	// The catalog clone is private to the Prepared: translation extends it
	// with the query-result layout.
	p, err := metalog.PrepareQuery(sn.cat.Clone(), query, sn.pstats)
	if err != nil {
		return nil, "miss", err
	}
	s.plans.put(key, p)
	return p, "miss", nil
}

// plannerSection is the live planner block of the /stats document: the
// server-side plan-cache counters plus the process-wide obs planner
// counters (planned vs unplanned runs, fallbacks, estimated-vs-actual row
// totals).
type plannerSection struct {
	Enabled       bool  `json:"enabled"`
	CacheCapacity int   `json:"cacheCapacity"`
	CacheEntries  int   `json:"cacheEntries"`
	CacheHits     int64 `json:"cacheHits"`
	CacheMisses   int64 `json:"cacheMisses"`
	PlannedRuns   int64 `json:"plannedRuns"`
	UnplannedRuns int64 `json:"unplannedRuns"`
	Fallbacks     int64 `json:"fallbacks"`
	EstRows       int64 `json:"estRows"`
	ActualRows    int64 `json:"actualRows"`
}

func (s *Server) plannerStats() *plannerSection {
	oc := obs.Counters()
	return &plannerSection{
		Enabled:       !s.cfg.PlannerOff,
		CacheCapacity: s.cfg.PlanCacheSize,
		CacheEntries:  s.plans.len(),
		CacheHits:     mPlanHits.Load(),
		CacheMisses:   mPlanMisses.Load(),
		PlannedRuns:   oc.PlannedRuns,
		UnplannedRuns: oc.UnplannedRuns,
		Fallbacks:     oc.PlanFallbacks,
		EstRows:       oc.PlanEstRows,
		ActualRows:    oc.PlanActualRows,
	}
}

// explainResponse is the /explain body: the plan chosen for the pattern
// under the current generation, its cost estimates, and — with "run": true —
// the actual row count next to the estimate.
type explainResponse struct {
	Generation    uint64     `json:"generation"`
	Planner       string     `json:"planner"` // "on" or "off"
	Planned       bool       `json:"planned"`
	Fallback      string     `json:"fallback,omitempty"`
	EstimatedRows float64    `json:"estimatedRows"`
	ActualRows    *int       `json:"actualRows,omitempty"`
	Plan          *plan.Plan `json:"plan,omitempty"`
}

func (s *Server) handleExplain(r *http.Request) (*apiResult, *apiError) {
	body, aerr := readBody(r.Body, s.cfg.MaxBody)
	if aerr != nil {
		return nil, aerr
	}
	req, aerr := decodeExplainRequest(body)
	if aerr != nil {
		return nil, aerr
	}
	sn := s.current()
	if s.cfg.PlannerOff {
		out, aerr := marshalBody(explainResponse{
			Generation: sn.gen, Planner: "off",
			Fallback: "planner disabled by configuration",
		})
		if aerr != nil {
			return nil, aerr
		}
		return &apiResult{body: out, gen: sn.gen}, nil
	}
	prep, disposition, err := s.preparedFor(sn, req.Query)
	if err != nil {
		return nil, mapEvalError(err)
	}
	resp := explainResponse{
		Generation:    sn.gen,
		Planner:       "on",
		Planned:       prep.Planned(),
		EstimatedRows: prep.EstimatedRows(),
		Plan:          prep.Plan(),
	}
	if resp.Plan != nil {
		resp.Fallback = resp.Plan.Fallback
	}
	if req.Run {
		ctx := r.Context()
		if s.cfg.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
			defer cancel()
		}
		rows, err := s.queryRows(ctx, sn, prep, req.Query, s.queryOpts())
		if err != nil {
			return nil, mapEvalError(err)
		}
		n := len(rows)
		resp.ActualRows = &n
	}
	out, aerr := marshalBody(resp)
	if aerr != nil {
		return nil, aerr
	}
	return &apiResult{body: out, gen: sn.gen, cache: disposition}, nil
}
