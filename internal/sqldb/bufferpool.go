package sqldb

import (
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
// the page resident, a miss pays the simulated disk latency and takes the
// page's image as it is (sealedPage.mapped), decoding no row and allocating
// nothing.
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
// reader under the latch alone reads the copy of the page Get returned, whose
// image and slots no one changes: an edit replaces slots under both, and an
// evicted entry is reused for another page without touching them.
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

// poolStripe is one lock-striped LRU segment of the pool. Its entries are
// one fixed array, linked by index into the LRU list (front = most recently
// used) and, while unused, into a free list; index finds a key's entry. A
// stripe that keeps no pages has one entry, lent to each access in turn.
type poolStripe struct {
	mu          sync.Mutex
	capacity    int
	index       map[PageKey]int32
	entries     []poolEntry
	front, back int32 // the LRU list's ends; none when it is empty
	free        int32 // the first unused entry; none when every one is used

	_ [32]byte // pad to keep neighbouring stripe mutexes off one cache line
}

// none is the index of no entry.
const none int32 = -1

type poolEntry struct {
	key  PageKey
	page *sealedPage // where a dirty page is written back to
	residentPage
	dirty      bool  // the resident page is newer than page's image
	prev, next int32 // LRU neighbours (towards front, towards back), or next unused
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
		s := &p.stripes[i]
		s.capacity, s.index = cap, make(map[PageKey]int32, cap)
		s.entries = make([]poolEntry, max(cap, 1))
		s.front, s.back, s.free = none, none, none
		for e := len(s.entries) - 1; e >= 0 && cap > 0; e-- {
			s.entries[e].next, s.free = s.free, int32(e)
		}
	}
	return p
}

// stripe maps a key to its owning stripe by a multiplicative hash.
func (p *BufferPool) stripe(key PageKey) *poolStripe {
	h := (uint64(key.Table)<<32 | uint64(key.Page)) * 0x9e3779b97f4a7c15
	return &p.stripes[(h>>32)%uint64(len(p.stripes))]
}

// unlink takes entry i out of the LRU list. Called with s.mu held.
func (s *poolStripe) unlink(i int32) {
	en := &s.entries[i]
	if en.prev != none {
		s.entries[en.prev].next = en.next
	} else {
		s.front = en.next
	}
	if en.next != none {
		s.entries[en.next].prev = en.prev
	} else {
		s.back = en.prev
	}
}

// pushFront puts entry i at the front of the LRU list. Called with s.mu held.
func (s *poolStripe) pushFront(i int32) {
	en := &s.entries[i]
	en.prev, en.next = none, s.front
	if s.front != none {
		s.entries[s.front].prev = i
	} else {
		s.back = i
	}
	s.front = i
}

// touch makes entry i the most recently used. Called with s.mu held.
func (s *poolStripe) touch(i int32) {
	if s.front != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

// resident returns key's entry with s.mu held, taking the page's checked
// image on a miss. A modelled disk read (missLatency) releases the stripe
// mutex, so that concurrent misses overlap as concurrent disk reads would;
// the image is taken after it is held again, so a page evicted meanwhile is
// read as its eviction wrote it back. A pool without capacity returns its
// stripe's one entry, which it does not keep. On error the mutex is not held.
func (p *BufferPool) resident(s *poolStripe, key PageKey, page *sealedPage) (*poolEntry, error) {
	s.mu.Lock()
	if i, ok := s.index[key]; ok {
		s.touch(i)
		p.hitMiss.IncA()
		return &s.entries[i], nil
	}
	p.hitMiss.IncB()
	if p.missLatency > 0 {
		s.mu.Unlock()
		time.Sleep(p.missLatency)
		s.mu.Lock()
		if i, ok := s.index[key]; ok {
			// Raced with another loader; keep the resident copy.
			s.touch(i)
			return &s.entries[i], nil
		}
	}
	img, err := page.mapped()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	return p.install(s, key, page, residentPage{img: img}, false), nil
}

// install makes pg key's entry, the most recently used, evicting the least
// recently used entry of a full stripe for its room. A stripe that keeps no
// pages lends it its one entry. Called with s.mu held.
func (p *BufferPool) install(s *poolStripe, key PageKey, page *sealedPage, pg residentPage, dirty bool) *poolEntry {
	en := poolEntry{key: key, page: page, residentPage: pg, dirty: dirty, prev: none, next: none}
	if s.capacity <= 0 {
		s.entries[0] = en
		return &s.entries[0]
	}
	if s.free == none {
		p.evict(s, s.back)
		p.evictions.Add(1)
	}
	i := s.free
	s.free = s.entries[i].next
	s.entries[i] = en
	s.pushFront(i)
	s.index[key] = i
	return &s.entries[i]
}

// Get returns the resident page, taking it from the page's image on a miss.
// The caller reads it under the owning table's latch.
func (p *BufferPool) Get(key PageKey, page *sealedPage) (residentPage, error) {
	s := p.stripe(key)
	en, err := p.resident(s, key, page)
	if err != nil {
		return residentPage{}, err
	}
	pg := en.residentPage
	s.mu.Unlock()
	return pg, nil
}

// Update applies edit to the resident page — taking it on a miss, like Get,
// and giving it slots of its own on its first edit — and marks the page
// dirty. edit runs under the stripe mutex, which is what keeps it apart from
// an eviction encoding the same page. The caller holds the owning table's
// latch, as for every access to the table's pages.
func (p *BufferPool) Update(key PageKey, page *sealedPage, edit func(*residentPage)) error {
	s := p.stripe(key)
	en, err := p.resident(s, key, page)
	if err != nil {
		return err
	}
	en.own()
	edit(&en.residentPage)
	if s.capacity > 0 {
		en.dirty = true
	} else {
		p.writeBack(en) // nothing keeps the page: write it through
	}
	s.mu.Unlock()
	return nil
}

// Put installs a page that has no image yet, as its slots: the table's tail
// page, sealed. The page starts its residency dirty.
func (p *BufferPool) Put(key PageKey, page *sealedPage, slots []pageSlot) {
	s := p.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	en := p.install(s, key, page, residentPage{slots: slots}, true)
	if s.capacity <= 0 {
		p.writeBack(en)
	}
}

// Flush writes the page back if it is resident and dirty, leaving it
// resident: afterwards the page's image is current. Bulk readers that
// bypass the pool (dump, checkpoint, Algorithm 1 copy) call it per page.
func (p *BufferPool) Flush(key PageKey) {
	s := p.stripe(key)
	s.mu.Lock()
	if i, ok := s.index[key]; ok && s.entries[i].dirty {
		p.writeBack(&s.entries[i])
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

// evict removes entry i from its stripe, writing it back first if dirty, and
// frees it. Called with s.mu held.
func (p *BufferPool) evict(s *poolStripe, i int32) {
	en := &s.entries[i]
	if en.dirty {
		p.writeBack(en)
	}
	s.drop(i)
}

// drop unlinks entry i, forgets its page and puts it on the free list.
// Called with s.mu held.
func (s *poolStripe) drop(i int32) {
	s.unlink(i)
	delete(s.index, s.entries[i].key)
	s.entries[i] = poolEntry{next: s.free}
	s.free = i
}

// InvalidateTable discards every cached page of a table incarnation, dirty
// or not, writing none back: the table has left the catalog (DROP TABLE,
// DROP DATABASE, a restore replacing it) under its X lock, so no statement
// reads it again.
func (p *BufferPool) InvalidateTable(table uint32) {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		for key, e := range s.index {
			if key.Table == table {
				s.drop(e)
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
		n += len(s.index)
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
