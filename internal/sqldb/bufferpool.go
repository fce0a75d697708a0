package sqldb

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"sdp/internal/obs"
)

// PageKey identifies a page across all tables of one engine: the table's
// incarnation (Table.inc) and the page's position in it.
type PageKey struct {
	Table uint32
	Page  uint32
}

// PoolStats reports buffer-pool activity counters.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Writebacks counts dirty pages encoded into their disk image: on
	// eviction, when a bulk reader flushes them, or at once by a pool that
	// cannot hold pages.
	Writebacks uint64
	// RowsDecoded counts every decode of a stored row into values. Nothing
	// keeps a decoded row, so it is the rows storage read: one per point
	// read, fetched index candidate, row a scan examines, and row an UPDATE
	// or DELETE replaces. A cold scan (dump, checkpoint, copy) decodes no
	// row: it moves each row's encoding. Reading one column of a row (a
	// candidate's key, an index build, a restore's key columns) decodes no
	// row.
	RowsDecoded uint64
}

// HitRate returns hits/(hits+misses), or 0 when no accesses were made.
func (s PoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// poolStripeTarget is the minimum capacity (in pages) per stripe: pools
// smaller than two stripes' worth keep a single stripe and therefore exact
// global LRU order. maxPoolStripes bounds the stripe count for huge pools.
const (
	poolStripeTarget = 32
	maxPoolStripes   = 16
)

// BufferPool is a fixed-capacity LRU cache of resident pages, one per engine.
// It models the DBMS buffer pool of the paper's MySQL instances: a hit finds
// the page mapped, a miss pays the simulated disk latency and maps the page's
// image (mapPage), decoding no row.
// The pool is the mechanism that makes the paper's read-routing options
// (1/2/3) perform differently — routing all of a database's reads to one
// replica keeps that replica's pool warm.
//
// The pool is write-back: a row change edits the resident page (Update) and
// marks it dirty, and the page is encoded into its sealedPage only when it
// is evicted, when a bulk reader needs the image (Flush), or at once when the
// pool cannot hold pages. A resident page is
// therefore the page's newest contents and its sealed image may be stale;
// durability is the WAL's job, and a crash loses the pool with the rest of
// the engine's memory.
//
// Lock order: a table's latch, then a stripe mutex, then the publication of a
// page image (atomic, never waits). Every reader and writer of a table's
// resident pages holds that table's latch; only eviction touches a page
// without it — holding the stripe mutex, under which pages are also edited
// — so it can encode a page of a table whose latch someone else holds. A
// reader under the latch alone only reads slots, and an edit replaces them
// under both, so the two never conflict.
//
// The pool is sharded into lock stripes keyed by PageKey hash so concurrent
// clients do not serialise on a single mutex. Capacity is partitioned across
// stripes (each stripe runs its own LRU over its share), and the stripe count
// scales with capacity: small pools — like the ones the pool-size ablation
// experiments use — keep one stripe and exact global LRU semantics. The
// hit/miss/eviction counters are pool-global atomics and stay exact
// regardless of striping.
type BufferPool struct {
	stripes     []poolStripe
	missLatency time.Duration

	// hitMiss packs the hit (A) and miss (B) counters into one word so
	// Stats() returns a pair that was simultaneously true — a concurrent
	// reader can never observe a hit whose matching access is missing from
	// the total (see obs.Pair).
	hitMiss       obs.Pair
	evictions     atomic.Uint64
	writebacks    atomic.Uint64
	rowsDecoded   atomic.Uint64 // added to by the tables, which do the decoding
	writebackSink *obs.Counter  // Config.PoolWritebacks; may be nil
}

// poolStripe is one lock-striped LRU segment of the pool.
type poolStripe struct {
	mu       sync.Mutex
	capacity int
	entries  map[PageKey]*list.Element
	lru      *list.List // front = most recently used

	_ [32]byte // pad to keep neighbouring stripe mutexes off one cache line
}

type poolEntry struct {
	key  PageKey
	page *sealedPage // where a dirty page is written back to
	residentPage
	dirty bool // the resident page is newer than page's image
}

// poolStripeCount picks the stripe count for a capacity.
func poolStripeCount(capacity int) int {
	return min(max(capacity/poolStripeTarget, 1), maxPoolStripes)
}

// NewBufferPool creates a pool holding at most capacity resident pages.
// A capacity of 0 or less disables caching entirely (every access is a miss).
// missLatency is added to every miss to simulate disk I/O; zero disables it.
func NewBufferPool(capacity int, missLatency time.Duration) *BufferPool {
	n := poolStripeCount(capacity)
	p := &BufferPool{
		stripes:     make([]poolStripe, n),
		missLatency: missLatency,
	}
	base, extra := 0, 0
	if capacity > 0 {
		base, extra = capacity/n, capacity%n
	}
	for i := range p.stripes {
		cap := base
		if i < extra {
			cap++
		}
		p.stripes[i] = poolStripe{
			capacity: cap,
			entries:  make(map[PageKey]*list.Element),
			lru:      list.New(),
		}
	}
	return p
}

// stripe maps a key to its owning stripe by a multiplicative hash.
func (p *BufferPool) stripe(key PageKey) *poolStripe {
	h := (uint64(key.Table)<<32 | uint64(key.Page)) * 0x9e3779b97f4a7c15
	return &p.stripes[(h>>32)%uint64(len(p.stripes))]
}

// resident returns key's entry with s.mu held, reading and mapping the page
// on a miss. The stripe mutex is released for the read so concurrent misses
// overlap, exactly as concurrent disk reads would; the evict→reload race on
// one key stays closed because a page's image is published before its entry
// leaves the stripe's map, under the same mutex the miss was observed under.
// A pool without capacity returns an entry it does not keep. On error the
// mutex is not held.
func (p *BufferPool) resident(s *poolStripe, key PageKey, page *sealedPage) (*poolEntry, error) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		p.hitMiss.IncA()
		return el.Value.(*poolEntry), nil
	}
	s.mu.Unlock()

	p.hitMiss.IncB()
	if p.missLatency > 0 {
		time.Sleep(p.missLatency)
	}
	slots, err := mapPage(page.image())
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		// Raced with another loader; keep the resident copy.
		s.lru.MoveToFront(el)
		return el.Value.(*poolEntry), nil
	}
	en := &poolEntry{key: key, page: page, residentPage: residentPage{slots: slots}}
	if s.capacity > 0 {
		s.entries[key] = s.lru.PushFront(en)
		p.evictOverflow(s)
	}
	return en, nil
}

// Get returns the resident page, mapping it from the page's image on a miss.
// It is the pool's own: the caller reads its slots under the owning table's
// latch.
func (p *BufferPool) Get(key PageKey, page *sealedPage) (*residentPage, error) {
	s := p.stripe(key)
	en, err := p.resident(s, key, page)
	if err != nil {
		return nil, err
	}
	s.mu.Unlock()
	return &en.residentPage, nil
}

// Update applies edit to the resident page — mapping it on a miss, like Get —
// and marks the page dirty. edit runs under the stripe mutex, which is what
// keeps it apart from an eviction encoding the same page. The caller holds
// the owning table's latch, as for every access to the table's pages.
func (p *BufferPool) Update(key PageKey, page *sealedPage, edit func(*residentPage)) error {
	s := p.stripe(key)
	en, err := p.resident(s, key, page)
	if err != nil {
		return err
	}
	edit(&en.residentPage)
	if s.capacity > 0 {
		en.dirty = true
	} else {
		p.writeBack(en) // nothing keeps the page: write it through
	}
	s.mu.Unlock()
	return nil
}

// Put installs a page that has no image yet: the table's tail page, sealed.
// The page starts its residency dirty.
func (p *BufferPool) Put(key PageKey, page *sealedPage, slots []pageSlot) {
	s := p.stripe(key)
	en := &poolEntry{key: key, page: page, residentPage: residentPage{slots: slots}, dirty: true}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity <= 0 {
		p.writeBack(en)
		return
	}
	s.entries[key] = s.lru.PushFront(en)
	p.evictOverflow(s)
}

// Flush writes the page back if it is resident and dirty, leaving it
// resident: afterwards the page's image is current. Bulk readers that
// bypass the pool (dump, checkpoint, Algorithm 1 copy) call it per page.
func (p *BufferPool) Flush(key PageKey) {
	s := p.stripe(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok && el.Value.(*poolEntry).dirty {
		p.writeBack(el.Value.(*poolEntry))
	}
	s.mu.Unlock()
}

// writeBack encodes a dirty entry into its page's image. The entry's slots
// keep whatever strings they hold. Called with the entry's stripe mutex held.
func (p *BufferPool) writeBack(en *poolEntry) {
	en.page.store(en.encode())
	en.dirty = false
	p.writebacks.Add(1)
	if p.writebackSink != nil {
		p.writebackSink.Inc()
	}
}

// evict removes an entry from its stripe, writing it back first if dirty.
// Called with s.mu held.
func (p *BufferPool) evict(s *poolStripe, el *list.Element) {
	en := s.lru.Remove(el).(*poolEntry)
	delete(s.entries, en.key)
	if en.dirty {
		p.writeBack(en)
	}
}

// evictOverflow trims a stripe to its capacity. Called with s.mu held.
func (p *BufferPool) evictOverflow(s *poolStripe) {
	for s.lru.Len() > s.capacity {
		p.evict(s, s.lru.Back())
		p.evictions.Add(1)
	}
}

// InvalidateTable discards every cached page of a table incarnation, dirty
// or not, writing none back: the table has left the catalog (DROP TABLE,
// DROP DATABASE, a restore replacing it) under its X lock, so no statement
// reads it again.
func (p *BufferPool) InvalidateTable(table uint32) {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		for key, el := range s.entries {
			if key.Table == table {
				s.lru.Remove(el)
				delete(s.entries, key)
			}
		}
		s.mu.Unlock()
	}
}

// Len returns the number of resident pages.
func (p *BufferPool) Len() int {
	n := 0
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the pool counters. Hits and misses come from
// one atomic word, so the pair is never torn: Hits+Misses is exactly the
// number of accesses recorded at a single instant.
func (p *BufferPool) Stats() PoolStats {
	hits, misses := p.hitMiss.Load()
	return PoolStats{
		Hits:        hits,
		Misses:      misses,
		Evictions:   p.evictions.Load(),
		Writebacks:  p.writebacks.Load(),
		RowsDecoded: p.rowsDecoded.Load(),
	}
}
