package sqldb

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sdp/internal/obs"
)

// PlanCacheStats reports plan-cache activity counters. A hit means the
// engine skipped the lexer, the parser and access-path planning for a
// statement; a miss paid for at least re-planning (and, for text lookups,
// a full re-parse).
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate returns hits/(hits+misses), or 0 when no lookups were made.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// defaultPlanCacheSize is the text-cache capacity used when the engine
// configuration does not specify one.
const defaultPlanCacheSize = 512

// memoCapacity bounds the pointer-keyed plan memo. The memo is cleared
// wholesale when it overflows; it only ever holds plans that can be
// recomputed from the statement.
const memoCapacity = 4096

// planCache is the engine's statement cache: a concurrency-safe LRU mapping
// (database, SQL text) to the parsed statement plus its precomputed
// access-path plan, and a pointer-keyed memo for callers that hold
// pre-parsed statements (the cluster controller parses once and executes the
// same Statement on every replica engine).
//
// Invalidation is two-layered. Every DDL statement bumps gen, and a plan
// whose generation does not match is re-derived before use — this is what
// guarantees a stale plan never reads a dropped table or misses a newly
// created index. Additionally, DDL on a table evicts every cached entry
// referencing that table, so dropped-table plans do not linger in memory.
type planCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used

	memo     atomic.Pointer[sync.Map]
	memoSize atomic.Int64

	gen atomic.Uint64 // bumped by every DDL / catalog change

	// hitMiss packs hits (A) and misses (B) into one word so stats
	// snapshots are never torn (see obs.Pair).
	hitMiss   obs.Pair
	evictions atomic.Uint64
}

// planEntry is one resident text-cache entry.
type planEntry struct {
	key  string
	stmt Statement
	plan *stmtPlan
}

// memoKey keys the pointer memo: the same parsed statement may execute
// against different databases of one engine with different plans.
type memoKey struct {
	stmt Statement
	db   string
}

func newPlanCache(capacity int) *planCache {
	if capacity == 0 {
		capacity = defaultPlanCacheSize
	}
	pc := &planCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
	pc.memo.Store(&sync.Map{})
	return pc
}

// disabled reports whether plan caching is off (negative configured size).
func (pc *planCache) disabled() bool { return pc.capacity < 0 }

func planKey(db, sql string) string { return db + "\x00" + sql }

// get returns the cached statement and plan for (db, sql).
func (pc *planCache) get(db, sql string) (Statement, *stmtPlan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[planKey(db, sql)]
	if !ok {
		return nil, nil, false
	}
	pc.lru.MoveToFront(el)
	e := el.Value.(*planEntry)
	return e.stmt, e.plan, true
}

// put installs (or refreshes) the entry for (db, sql), evicting the least
// recently used entry when the cache is full.
func (pc *planCache) put(db, sql string, stmt Statement, plan *stmtPlan) {
	key := planKey(db, sql)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		e := el.Value.(*planEntry)
		e.stmt, e.plan = stmt, plan
		pc.lru.MoveToFront(el)
		return
	}
	el := pc.lru.PushFront(&planEntry{key: key, stmt: stmt, plan: plan})
	pc.entries[key] = el
	for pc.lru.Len() > pc.capacity {
		oldest := pc.lru.Back()
		pc.lru.Remove(oldest)
		delete(pc.entries, oldest.Value.(*planEntry).key)
		pc.evictions.Add(1)
	}
}

// bumpGen invalidates every cached plan (they re-derive lazily on next use).
func (pc *planCache) bumpGen() { pc.gen.Add(1) }

// invalidateTables evicts every text-cache entry of db that references one
// of the given (lower-cased) table names, and bumps the generation so memoed
// plans re-derive too.
func (pc *planCache) invalidateTables(db string, tables ...string) {
	pc.bumpGen()
	prefix := db + "\x00"
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var victims []*list.Element
	for key, el := range pc.entries {
		if len(key) < len(prefix) || key[:len(prefix)] != prefix {
			continue
		}
		e := el.Value.(*planEntry)
		if e.plan == nil {
			continue
		}
		for _, ref := range e.plan.tables {
			for _, t := range tables {
				if ref == t {
					victims = append(victims, el)
				}
			}
		}
	}
	for _, el := range victims {
		delete(pc.entries, el.Value.(*planEntry).key)
		pc.lru.Remove(el)
		pc.evictions.Add(1)
	}
}

// invalidateDB evicts every text-cache entry of db (DROP DATABASE).
func (pc *planCache) invalidateDB(db string) {
	pc.bumpGen()
	prefix := db + "\x00"
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for key, el := range pc.entries {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			delete(pc.entries, key)
			pc.lru.Remove(el)
			pc.evictions.Add(1)
		}
	}
}

// stats returns a snapshot of the counters. The hit/miss pair comes from
// one atomic word and is never torn.
func (pc *planCache) stats() PlanCacheStats {
	hits, misses := pc.hitMiss.Load()
	return PlanCacheStats{
		Hits:      hits,
		Misses:    misses,
		Evictions: pc.evictions.Load(),
	}
}

// memoLoad returns the memoed plan for (stmt, db) if it is current.
func (pc *planCache) memoLoad(db string, stmt Statement) (*stmtPlan, bool) {
	v, ok := pc.memo.Load().Load(memoKey{stmt: stmt, db: db})
	if !ok {
		return nil, false
	}
	p := v.(*stmtPlan)
	if p.gen != pc.gen.Load() {
		return nil, false
	}
	return p, true
}

// memoStore installs a plan in the pointer memo, clearing the memo wholesale
// if it grew past its capacity (plans are recomputable; losing them is only
// a performance event).
func (pc *planCache) memoStore(db string, stmt Statement, plan *stmtPlan) {
	m := pc.memo.Load()
	key := memoKey{stmt: stmt, db: db}
	if _, loaded := m.LoadOrStore(key, plan); loaded {
		m.Store(key, plan)
		return
	}
	if pc.memoSize.Add(1) > memoCapacity {
		pc.memo.Store(&sync.Map{})
		pc.memoSize.Store(0)
	}
}

// StmtCache is a concurrency-safe LRU cache of parsed statements keyed by
// SQL text. It carries no access-path plans and no catalog references, so
// one cache can serve statements routed to any number of engines — the
// cluster controller uses it to parse each distinct statement once and
// execute the shared (immutable) AST on every replica.
type StmtCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      *list.List
}

// stmtEntry is one resident statement-cache entry.
type stmtEntry struct {
	sql  string
	stmt Statement
}

// NewStmtCache creates a statement cache holding at most capacity parsed
// statements; capacity <= 0 selects a default.
func NewStmtCache(capacity int) *StmtCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheSize
	}
	return &StmtCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Parse returns the parsed form of sql, serving repeats from the cache.
// Parse errors are not cached (they are not hot paths).
func (c *StmtCache) Parse(sql string) (Statement, error) {
	c.mu.Lock()
	if el, ok := c.entries[sql]; ok {
		c.lru.MoveToFront(el)
		stmt := el.Value.(*stmtEntry).stmt
		c.mu.Unlock()
		return stmt, nil
	}
	c.mu.Unlock()

	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[sql]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*stmtEntry).stmt, nil
	}
	el := c.lru.PushFront(&stmtEntry{sql: sql, stmt: stmt})
	c.entries[sql] = el
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*stmtEntry).sql)
	}
	return stmt, nil
}
