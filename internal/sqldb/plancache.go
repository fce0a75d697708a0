package sqldb

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// One rule governs every statement cache from the socket to the engine:
// keep what repeats, for as long as it repeats. A StmtCache maps SQL text to
// its parsed statement; a statement's bound plans live in a table on the
// statement node itself (planTable), so whatever drops the statement — an
// eviction, or never admitting it — drops its text, its AST and every plan
// bound from it, on every engine, at once. DESIGN.md, "Statement and plan
// caching", has the reasoning and the measurements.

// PlanCacheStats counts look-ups of a statement's bound plan. A hit skipped
// access-path planning and closure binding; a miss paid for them — the first
// two executions of a text on a database (see StmtCache), and the first after
// any DDL on the engine.
type PlanCacheStats struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns hits/(hits+misses), or 0 when no lookups were made.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// StmtCacheStats is what a StmtCache retains right now: Bytes in the unit
// its budget is kept in (see stmtCost), over Entries statements.
type StmtCacheStats struct {
	Bytes   int
	Entries int
}

const (
	// stmtCacheBudget bounds what one StmtCache retains. The unit is SQL
	// text bytes: the length is known before anything is parsed, and the
	// parser builds every AST node from at least one token, so an AST is a
	// bounded multiple of its text — 8.9× for the TPC-W load's literal
	// INSERTs, less for parameterised statements, ≈ 32× at worst (a
	// one-digit literal and its comma become a 64-byte node). 256 KiB is
	// some 800 statements of OLTP size.
	stmtCacheBudget = 256 << 10

	// stmtEntryOverhead is charged per statement on top of its text: the
	// entry, its map and queue slots and the fixed part of the AST. It also
	// caps the entry count (2 048) whatever the texts' lengths.
	stmtEntryOverhead = 128

	// doorSlots sizes the doorkeeper, the table of text hashes that
	// remembers a first sighting without keeping the statement (4 KiB).
	doorSlots = 1024
)

// stmtCost is the budget charge of caching sql.
func stmtCost(sql string) int { return len(sql) + stmtEntryOverhead }

// StmtCache is a concurrency-safe cache of parsed statements keyed by SQL
// text. It holds no catalog reference, so one cache serves statements routed
// to any number of engines and databases: the platform parses each repeating
// statement once and executes the shared, immutable AST on every replica.
//
// Admission is on the second sighting. The first time a text is seen it is
// parsed and returned, and only a hash of it is remembered, in a fixed
// direct-mapped table; a text whose hash is found there is admitted. A bulk
// load, a log replay, or an application that formats literals into its SQL
// therefore leaves nothing behind, at the price of parsing a statement that
// does repeat twice in its life. Retention is bounded by stmtCacheBudget and
// eviction is second-chance FIFO: a hit only sets a flag on the entry (under
// the read lock), and the sweep that makes room passes over flagged entries
// once, so a statement stays for as long as it keeps being used.
type StmtCache struct {
	budget   int
	seed     maphash.Seed
	door     [doorSlots]atomic.Uint32
	bypassed atomic.Uint64

	mu      sync.RWMutex
	entries map[string]*stmtEntry
	queue   list.List // of *stmtEntry, front = next eviction candidate
	bytes   int
}

// stmtEntry is one resident statement.
type stmtEntry struct {
	sql  string
	stmt Statement
	used atomic.Bool // hit since the eviction sweep last passed
}

// NewStmtCache creates an empty statement cache.
func NewStmtCache() *StmtCache { return newStmtCache(stmtCacheBudget) }

func newStmtCache(budget int) *StmtCache {
	return &StmtCache{
		budget:  budget,
		seed:    maphash.MakeSeed(),
		entries: make(map[string]*stmtEntry),
	}
}

// Parse returns the parsed form of sql, serving a text that repeats from the
// cache. Parse errors are not remembered (they are not hot paths).
func (c *StmtCache) Parse(sql string) (Statement, error) {
	c.mu.RLock()
	e := c.entries[sql]
	c.mu.RUnlock()
	if e != nil {
		if !e.used.Load() { // keep a hot entry's cache line shared
			e.used.Store(true)
		}
		return e.stmt, nil
	}

	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	h := maphash.String(c.seed, sql)
	tag := uint32(h>>32) | 1 // never the empty slot's zero
	if c.door[h%doorSlots].Swap(tag) != tag || stmtCost(sql) > c.budget {
		c.bypassed.Add(1)
		return stmt, nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[sql]; e != nil {
		return e.stmt, nil // admitted by a concurrent caller
	}
	e = &stmtEntry{sql: sql, stmt: stmt}
	c.entries[sql] = e
	c.queue.PushBack(e)
	c.bytes += stmtCost(sql)
	for c.bytes > c.budget {
		front := c.queue.Front()
		victim := front.Value.(*stmtEntry)
		if victim.used.Swap(false) {
			c.queue.MoveToBack(front)
			continue
		}
		c.queue.Remove(front)
		delete(c.entries, victim.sql)
		c.bytes -= stmtCost(victim.sql)
	}
	return stmt, nil
}

// Stats returns what the cache retains.
func (c *StmtCache) Stats() StmtCacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return StmtCacheStats{Bytes: c.bytes, Entries: len(c.entries)}
}

// TakeBypassed returns how many parsed statements were not admitted since
// the last call, and resets the count: several snapshot hooks, or a hook
// that outlives a restarted engine's cache, can each add what they take to
// one counter without counting a bypass twice.
func (c *StmtCache) TakeBypassed() uint64 {
	return c.bypassed.Swap(0)
}

// planKey names one database of one engine. A parsed statement is shared by
// every tenant running the same application, so its plans are looked up by
// hash, not by scanning.
type planKey struct {
	e  *Engine
	db string
}

// planTable holds the plans bound from one statement, one per (engine,
// database) that executed it. It is a field of the statement node, so a plan
// is reachable only through its statement and goes where the statement goes.
// Readers load an immutable map; a bind — once per key and DDL generation —
// copies it.
type planTable struct {
	cur atomic.Pointer[map[planKey]*stmtPlan]
	mu  sync.Mutex // serialises writers
}

// plansOf returns the plan table of a statement kind that binds, nil for the
// rest (DDL, EXPLAIN, transaction control).
func plansOf(stmt Statement) *planTable {
	switch s := stmt.(type) {
	case *SelectStmt:
		return &s.plans
	case *InsertStmt:
		return &s.plans
	case *UpdateStmt:
		return &s.plans
	case *DeleteStmt:
		return &s.plans
	}
	return nil
}

// load returns the plan bound for (e, db), unless DDL on e has retired it.
func (pt *planTable) load(e *Engine, db string) *stmtPlan {
	m := pt.cur.Load()
	if m == nil {
		return nil
	}
	p := (*m)[planKey{e, db}]
	if p == nil || p.gen != e.planGen.Load() {
		return nil
	}
	return p
}

// store publishes plan for (e, db); a nil plan (the statement no longer
// binds) removes what was there. Every plan its own engine has retired since
// — DDL, a dropped database, Close — is dropped on the way: a key holds its
// engine, and through it every table the engine had, so a statement that
// stays cached must not keep the entry of a closed engine past its next bind.
func (pt *planTable) store(e *Engine, db string, plan *stmtPlan) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var old map[planKey]*stmtPlan
	if m := pt.cur.Load(); m != nil {
		old = *m
	}
	key := planKey{e, db}
	if plan == nil && old[key] == nil {
		return
	}
	next := make(map[planKey]*stmtPlan, len(old)+1)
	for k, p := range old {
		if k != key && p.gen == k.e.planGen.Load() {
			next[k] = p
		}
	}
	if plan != nil {
		next[key] = plan
	}
	pt.cur.Store(&next)
}
