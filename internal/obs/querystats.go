package obs

import (
	"sort"
	"sync"
	"time"
)

// Per-tenant query-stats bounds. The paper's tenants are small
// applications with small, stable statement vocabularies — a prepared-
// statement workload rarely exceeds a few dozen distinct texts — so a
// modest per-tenant cap captures the real workload while bounding memory
// across many tenants. Overflow folds into the synthetic statement
// "(other)" instead of being dropped, so totals stay honest.
const (
	maxStatsPerTenant = 64
	maxStatsTenants   = 1024
	statsOverflowKey  = "(other)"
)

// QueryStat is one statement's accumulated execution profile for a tenant.
type QueryStat struct {
	// SQL is the statement text ("(other)" for folded overflow).
	SQL string `json:"sql"`
	// Count is how many times the statement executed.
	Count uint64 `json:"count"`
	// TotalSeconds is the summed execution time.
	TotalSeconds float64 `json:"total_seconds"`
	// MeanSeconds is TotalSeconds / Count.
	MeanSeconds float64 `json:"mean_seconds"`
	// MaxSeconds is the worst single execution.
	MaxSeconds float64 `json:"max_seconds"`
}

type queryAgg struct {
	count uint64
	total float64
	max   float64
}

// QueryStats accumulates per-tenant per-statement execution profiles —
// the "which queries is this tenant's time going to" attribution that the
// SLA report surfaces as top-K lists. Bounded in both dimensions (tenants
// and statements per tenant); overflow folds rather than drops. A nil
// QueryStats is valid and discards observations.
type QueryStats struct {
	mu      sync.Mutex
	tenants map[string]map[string]*queryAgg
}

// NewQueryStats creates an empty per-tenant query-stats accumulator.
func NewQueryStats() *QueryStats {
	return &QueryStats{tenants: make(map[string]map[string]*queryAgg)}
}

// Record accumulates one statement execution for a tenant database.
func (q *QueryStats) Record(db, sql string, d time.Duration) {
	if q == nil || db == "" || sql == "" {
		return
	}
	secs := d.Seconds()
	q.mu.Lock()
	defer q.mu.Unlock()
	stmts := q.tenants[db]
	if stmts == nil {
		if len(q.tenants) >= maxStatsTenants {
			return
		}
		stmts = make(map[string]*queryAgg)
		q.tenants[db] = stmts
	}
	agg := stmts[sql]
	if agg == nil {
		if len(stmts) >= maxStatsPerTenant {
			sql = statsOverflowKey
			if agg = stmts[sql]; agg == nil {
				agg = &queryAgg{}
				stmts[sql] = agg
			}
		} else {
			agg = &queryAgg{}
			stmts[sql] = agg
		}
	}
	agg.count++
	agg.total += secs
	if secs > agg.max {
		agg.max = secs
	}
}

// TopK returns a tenant's k most expensive statements by total execution
// time, descending. k <= 0 returns all of the tenant's statements.
func (q *QueryStats) TopK(db string, k int) []QueryStat {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	stmts := q.tenants[db]
	out := make([]QueryStat, 0, len(stmts))
	for sql, agg := range stmts {
		out = append(out, QueryStat{
			SQL:          sql,
			Count:        agg.count,
			TotalSeconds: agg.total,
			MeanSeconds:  agg.total / float64(agg.count),
			MaxSeconds:   agg.max,
		})
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSeconds != out[j].TotalSeconds {
			return out[i].TotalSeconds > out[j].TotalSeconds
		}
		return out[i].SQL < out[j].SQL
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
