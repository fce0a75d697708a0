package sqldb

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// rowLoc locates a row: either a sealed page slot or the open tail page.
type rowLoc struct {
	page int // -1 means the tail page
	slot int
}

// index is a secondary (or unique) hash index on one column, with an
// ordered view of its keys for range traversal.
type index struct {
	name   string
	col    int // column position
	unique bool
	m      map[string][]uint64 // key -> rowIDs
	ord    *orderedKeys
}

// add registers a rowID under key (ordering value v), maintaining the
// ordered key view. Called with the table latch held.
func (ix *index) add(key string, v Value, rowID uint64) {
	ids := ix.m[key]
	ix.m[key] = append(ids, rowID)
	if len(ids) == 0 {
		ix.ord.add(key, v)
	}
}

// Table holds the physical storage of one table: sealed pages (the "disk"),
// an open tail page of decoded rows, a primary-key index, and any secondary
// indexes. Reads and writes of sealed pages go through the engine's
// write-back buffer pool: the newest contents of a resident page are its
// decoded image in the pool, not the sealed page's disk image. The per-table
// mutex is a short-duration latch protecting physical structures — the
// decoded images of this table's pages included; transactional isolation is
// provided by the lock manager, not by this mutex.
type Table struct {
	schema *Schema
	engine *Engine
	qname  string // qualified "db/table" name used for locks and pool keys

	mu        sync.Mutex
	pages     []*sealedPage
	tail      []pageSlot
	loc       map[uint64]rowLoc
	pk        map[string]uint64 // pk key -> rowID; nil when no primary key
	pkOrd     *orderedKeys      // ordered view of pk keys; nil when no primary key
	indexes   map[string]*index // by lower-cased column name
	nextRowID uint64
	liveRows  int
	byteSize  int64

	// epoch counts physical row mutations (insert/delete/update). Optimistic
	// readers load it before and after their latched reads: an unchanged
	// epoch proves no writer committed a row change in between, so the reads
	// are consistent without lock-manager involvement. Bumped with t.mu held;
	// read without it.
	epoch atomic.Uint64

	// dirty counts transactions holding uncommitted physical changes to this
	// table (raised before a transaction's first change, dropped once its
	// outcome — including any undo — is fully applied). Optimistic readers
	// require dirty == 0 before trusting an epoch-validated read: physical
	// row images with a writer in flight may be uncommitted.
	dirty atomic.Int64
}

func newTable(e *Engine, qname string, schema *Schema) *Table {
	t := &Table{
		schema:  schema,
		engine:  e,
		qname:   qname,
		loc:     make(map[uint64]rowLoc),
		indexes: make(map[string]*index),
	}
	if schema.PKIdx >= 0 {
		t.pk = make(map[string]uint64)
		t.pkOrd = newOrderedKeys()
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Table }

// RowCount returns the number of live rows.
func (t *Table) RowCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.liveRows
}

// ByteSize returns the approximate encoded size of the table in bytes.
func (t *Table) ByteSize() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byteSize
}

// PageCount returns the number of sealed pages plus the open tail page.
func (t *Table) PageCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.pages)
	if len(t.tail) > 0 {
		n++
	}
	return n
}

// maxExactInt is the largest magnitude exactly representable as both int64
// and float64 (2^53); below it, integer formatting preserves the INT/FLOAT
// key-equality invariant without paying for float formatting.
const maxExactInt = int64(1) << 53

// keyString canonicalises a value for index keys: INT and FLOAT values that
// compare equal (Compare is numeric across the two types) must map to the
// same key. Integers — and floats holding exact integers — take a fast
// integer-formatting path; everything else falls back to the SQL literal
// form, matching how values outside the exact range compare (as float64).
func keyString(v Value) string {
	switch v.Typ {
	case TypeInt:
		if v.Int >= -maxExactInt && v.Int <= maxExactInt {
			return strconv.FormatInt(v.Int, 10)
		}
		return NewFloat(float64(v.Int)).String()
	case TypeFloat:
		if i := int64(v.Float); float64(i) == v.Float && i >= -maxExactInt && i <= maxExactInt {
			return strconv.FormatInt(i, 10)
		}
	}
	return v.String()
}

// keyVal pairs an index key with the value it orders by.
type keyVal struct {
	v Value
	k string
}

// orderedKeys maintains the distinct keys of an index in value order. The
// sorted view is built lazily: mutations invalidate it and the next range
// traversal re-sorts, so workloads without range queries never pay for
// ordering. Guarded by the owning table's latch.
type orderedKeys struct {
	vals map[string]Value
	ord  []keyVal // ascending by value; nil when stale
}

func newOrderedKeys() *orderedKeys {
	return &orderedKeys{vals: make(map[string]Value)}
}

func (o *orderedKeys) add(k string, v Value) {
	if _, ok := o.vals[k]; ok {
		return
	}
	o.vals[k] = v
	o.ord = nil
}

func (o *orderedKeys) drop(k string) {
	if _, ok := o.vals[k]; !ok {
		return
	}
	delete(o.vals, k)
	o.ord = nil
}

// rangeBounds is a concrete one-column range: [lo, hi] with per-side
// presence and inclusivity.
type rangeBounds struct {
	lo, hi         Value
	hasLo, hasHi   bool
	loIncl, hiIncl bool
}

// match reports whether a row value falls inside the bounds. NULL never
// matches (SQL comparisons with NULL are unknown).
func (b rangeBounds) match(v Value) bool {
	if v.IsNull() {
		return false
	}
	if b.hasLo {
		c := Compare(v, b.lo)
		if c < 0 || (c == 0 && !b.loIncl) {
			return false
		}
	}
	if b.hasHi {
		c := Compare(v, b.hi)
		if c > 0 || (c == 0 && !b.hiIncl) {
			return false
		}
	}
	return true
}

// scanRange calls fn for every key whose value lies within bounds, in
// ascending value order, rebuilding the sorted view if it is stale.
func (o *orderedKeys) scanRange(b rangeBounds, fn func(k string)) {
	if o.ord == nil {
		o.ord = make([]keyVal, 0, len(o.vals))
		for k, v := range o.vals {
			o.ord = append(o.ord, keyVal{v: v, k: k})
		}
		sort.Slice(o.ord, func(i, j int) bool { return Compare(o.ord[i].v, o.ord[j].v) < 0 })
	}
	start := 0
	if b.hasLo {
		start = sort.Search(len(o.ord), func(i int) bool {
			c := Compare(o.ord[i].v, b.lo)
			return c > 0 || (c == 0 && b.loIncl)
		})
	}
	for i := start; i < len(o.ord); i++ {
		kv := o.ord[i]
		if kv.v.IsNull() {
			continue // NULL sorts first; only reachable without a low bound
		}
		if b.hasHi {
			c := Compare(kv.v, b.hi)
			if c > 0 || (c == 0 && !b.hiIncl) {
				break
			}
		}
		fn(kv.k)
	}
}

// pkKey returns the primary-key index key of a row, or "" when the table has
// no primary key.
func (t *Table) pkKey(r Row) string {
	if t.schema.PKIdx < 0 {
		return ""
	}
	return keyString(r[t.schema.PKIdx])
}

// --- physical operations -------------------------------------------------
//
// The insert/delete/update *Physical methods mutate storage without any
// transactional bookkeeping; they are used both by the executor (which has
// already acquired locks and written undo records) and by the undo path
// itself.

// allocRowID reserves a fresh row ID.
func (t *Table) allocRowID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextRowID++
	return t.nextRowID
}

// insertRowPhysical places a row (with a pre-assigned ID) into storage and
// maintains all indexes. The caller guarantees uniqueness was checked.
func (t *Table) insertRowPhysical(rowID uint64, r Row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch.Add(1)
	t.tail = append(t.tail, pageSlot{rowID: rowID, row: r.Clone()})
	t.loc[rowID] = rowLoc{page: -1, slot: len(t.tail) - 1}
	if t.pk != nil {
		k := t.pkKey(r)
		t.pk[k] = rowID
		t.pkOrd.add(k, r[t.schema.PKIdx])
	}
	for _, idx := range t.indexes {
		idx.add(keyString(r[idx.col]), r[idx.col], rowID)
	}
	t.liveRows++
	t.byteSize += int64(encodedRowSize(r))
	if len(t.tail) >= pageCapacity {
		t.sealTail()
	}
}

// sealTail turns the full tail page into a sealed page. Nothing is encoded
// here: the page starts out resident and dirty, and gets its disk image when
// it first leaves the pool. Called with t.mu held.
func (t *Table) sealTail() {
	n := len(t.pages)
	page := &sealedPage{}
	t.pages = append(t.pages, page)
	for i, s := range t.tail {
		t.loc[s.rowID] = rowLoc{page: n, slot: i}
	}
	t.engine.pool.Put(t.pageKey(n), page, t.tail)
	t.tail = nil
}

// pageKey builds the buffer-pool key of a sealed page.
func (t *Table) pageKey(page int) PageKey {
	return PageKey{Table: t.qname, Page: page}
}

// corruptPagePanic reports a sealed page that does not decode. Disk images
// are written only by encodePage, so this is a bug, never input.
func (t *Table) corruptPagePanic(page int, err error) {
	panic(fmt.Sprintf("sqldb: corrupt page %s/%d: %v", t.schema.Table, page, err))
}

// deleteRowPhysical removes a row from storage and indexes. Missing rows are
// ignored (undo after partial failure).
func (t *Table) deleteRowPhysical(rowID uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.loc[rowID]
	if !ok {
		return
	}
	t.epoch.Add(1)
	var old Row
	var moved []pageSlot // the slots behind the deleted one, now one position up
	if l.page == -1 {
		old = t.tail[l.slot].row
		t.tail = append(t.tail[:l.slot], t.tail[l.slot+1:]...)
		moved = t.tail[l.slot:]
	} else {
		t.updatePageLocked(l.page, func(slots []pageSlot) []pageSlot {
			old = slots[l.slot].row
			last := len(slots) - 1
			copy(slots[l.slot:], slots[l.slot+1:])
			slots[last] = pageSlot{}
			moved = slots[l.slot:last]
			return slots[:last]
		})
	}
	for i, s := range moved {
		t.loc[s.rowID] = rowLoc{page: l.page, slot: l.slot + i}
	}
	delete(t.loc, rowID)
	if t.pk != nil {
		k := t.pkKey(old)
		delete(t.pk, k)
		t.pkOrd.drop(k)
	}
	for _, idx := range t.indexes {
		idx.remove(keyString(old[idx.col]), rowID)
	}
	t.liveRows--
	t.byteSize -= int64(encodedRowSize(old))
}

// updateRowPhysical replaces the image of a row in place, maintaining
// indexes.
func (t *Table) updateRowPhysical(rowID uint64, newRow Row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.loc[rowID]
	if !ok {
		return
	}
	t.epoch.Add(1)
	var old Row
	stored := newRow.Clone()
	if l.page == -1 {
		old = t.tail[l.slot].row
		t.tail[l.slot].row = stored
	} else {
		t.updatePageLocked(l.page, func(slots []pageSlot) []pageSlot {
			old = slots[l.slot].row
			slots[l.slot].row = stored
			return slots
		})
	}
	if t.pk != nil {
		oldKey, newKey := t.pkKey(old), t.pkKey(newRow)
		if oldKey != newKey {
			delete(t.pk, oldKey)
			t.pkOrd.drop(oldKey)
			t.pk[newKey] = rowID
			t.pkOrd.add(newKey, newRow[t.schema.PKIdx])
		}
	}
	for _, idx := range t.indexes {
		ok, nk := keyString(old[idx.col]), keyString(newRow[idx.col])
		if ok != nk {
			idx.remove(ok, rowID)
			idx.add(nk, newRow[idx.col], rowID)
		}
	}
	t.byteSize += int64(encodedRowSize(newRow) - encodedRowSize(old))
}

// decodePageLocked fetches the decoded slots of a sealed page via the buffer
// pool. Called with t.mu held, which is what makes the pool's own image safe
// to read: every edit of it holds this latch too.
func (t *Table) decodePageLocked(page int) []pageSlot {
	slots, err := t.engine.pool.Get(t.pageKey(page), t.pages[page])
	if err != nil {
		t.corruptPagePanic(page, err)
	}
	return slots
}

// updatePageLocked edits the resident decoded image of a sealed page (see
// BufferPool.Update). Called with t.mu held.
func (t *Table) updatePageLocked(page int, edit func([]pageSlot) []pageSlot) {
	if err := t.engine.pool.Update(t.pageKey(page), t.pages[page], edit); err != nil {
		t.corruptPagePanic(page, err)
	}
}

// appendKey appends keyString(v) to buf, avoiding allocation for the common
// integer- and text-valued cases so hot paths can reuse one scratch buffer.
func appendKey(buf []byte, v Value) []byte {
	switch v.Typ {
	case TypeInt:
		if v.Int >= -maxExactInt && v.Int <= maxExactInt {
			return strconv.AppendInt(buf, v.Int, 10)
		}
	case TypeFloat:
		if i := int64(v.Float); float64(i) == v.Float && i >= -maxExactInt && i <= maxExactInt {
			return strconv.AppendInt(buf, i, 10)
		}
	case TypeText:
		if !containsQuote(v.Str) {
			buf = append(buf, '\'')
			buf = append(buf, v.Str...)
			return append(buf, '\'')
		}
	}
	return append(buf, keyString(v)...)
}

func containsQuote(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			return true
		}
	}
	return false
}

// rowAtLocked returns the stored image of the row at l: the table's own, not
// a copy. Called with t.mu held; the image is only stable while it is.
func (t *Table) rowAtLocked(l rowLoc) Row {
	if l.page == -1 {
		return t.tail[l.slot].row
	}
	return t.decodePageLocked(l.page)[l.slot].row
}

// readPKRowInto looks up a primary-key row and copies its values into dst
// under a single latch acquisition, returning the (possibly grown)
// destination slice, the rowID, and whether the key exists. key is the
// canonical keyString form as raw bytes so hot callers can reuse one scratch
// buffer — indexing the map with string(key) does not allocate.
func (t *Table) readPKRowInto(key []byte, dst Row) (Row, uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk == nil {
		return dst, 0, false
	}
	id, ok := t.pk[string(key)]
	if !ok {
		return dst, 0, false
	}
	l, ok := t.loc[id]
	if !ok {
		return dst, 0, false
	}
	return append(dst[:0], t.rowAtLocked(l)...), id, true
}

// getRowsBatch appends clones of the rows with the given IDs to dst under a
// single latch acquisition, skipping IDs that no longer exist. Optimistic
// readers pair it with an epoch validation; locking readers call it only
// after the row locks are held.
func (t *Table) getRowsBatch(ids []uint64, dst []Row) []Row {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		if l, ok := t.loc[id]; ok {
			dst = append(dst, t.rowAtLocked(l).Clone())
		}
	}
	return dst
}

// getRow returns a copy of the row with the given ID, or ok=false.
func (t *Table) getRow(rowID uint64) (Row, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.loc[rowID]
	if !ok {
		return nil, false
	}
	return t.rowAtLocked(l).Clone(), true
}

// pkValue returns the primary-key value of the row with the given ID without
// copying the row, or ok=false. The table has a primary key.
func (t *Table) pkValue(rowID uint64) (Value, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.loc[rowID]
	if !ok {
		return Value{}, false
	}
	return t.rowAtLocked(l)[t.schema.PKIdx], true
}

// lookupPK returns the rowID for a primary-key value.
func (t *Table) lookupPK(v Value) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk == nil {
		return 0, false
	}
	id, ok := t.pk[keyString(v)]
	return id, ok
}

// lookupIndex returns the rowIDs matching v in the named column's index, and
// whether such an index exists.
func (t *Table) lookupIndex(col string, v Value) ([]uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.indexes[col]
	if !ok {
		return nil, false
	}
	ids := idx.m[keyString(v)]
	out := make([]uint64, len(ids))
	copy(out, ids)
	return out, true
}

// hasIndex reports whether col has a secondary index (col is lower-cased by
// the caller).
func (t *Table) hasIndex(col string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.indexes[col]
	return ok
}

// lookupPKRange returns the rowIDs whose primary key lies within bounds, in
// ascending key order.
func (t *Table) lookupPKRange(b rangeBounds) []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk == nil {
		return nil
	}
	var out []uint64
	t.pkOrd.scanRange(b, func(k string) {
		if id, ok := t.pk[k]; ok {
			out = append(out, id)
		}
	})
	return out
}

// lookupIndexRange returns the rowIDs whose indexed column value lies within
// bounds (ascending value order), and whether such an index exists.
func (t *Table) lookupIndexRange(col string, b rangeBounds) ([]uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.indexes[col]
	if !ok {
		return nil, false
	}
	var out []uint64
	idx.ord.scanRange(b, func(k string) {
		out = append(out, idx.m[k]...)
	})
	return out, true
}

// scan invokes fn for every live row (a copy) until fn returns false. It
// snapshots page identity under the latch but decodes outside of it page by
// page, so concurrent writers latch in between pages.
func (t *Table) scan(fn func(rowID uint64, r Row) bool) {
	t.mu.Lock()
	numPages := len(t.pages)
	t.mu.Unlock()
	for p := 0; p < numPages; p++ {
		t.mu.Lock()
		if p >= len(t.pages) {
			t.mu.Unlock()
			break
		}
		slots := t.decodePageLocked(p)
		// Copy out under the latch: the pool entry may be rewritten.
		copied := make([]pageSlot, len(slots))
		for i, s := range slots {
			copied[i] = pageSlot{rowID: s.rowID, row: s.row.Clone()}
		}
		t.mu.Unlock()
		for _, s := range copied {
			// Skip rows that moved or died since the snapshot.
			t.mu.Lock()
			l, live := t.loc[s.rowID]
			t.mu.Unlock()
			if !live || l.page != p {
				continue
			}
			if !fn(s.rowID, s.row) {
				return
			}
		}
	}
	t.mu.Lock()
	tailCopy := make([]pageSlot, len(t.tail))
	for i, s := range t.tail {
		tailCopy[i] = pageSlot{rowID: s.rowID, row: s.row.Clone()}
	}
	t.mu.Unlock()
	for _, s := range tailCopy {
		if !fn(s.rowID, s.row) {
			return
		}
	}
}

// scanWhere is scan with a predicate evaluated under the page latch, so
// non-matching rows are skipped without being cloned. match receives the
// pool's shared row image and must neither retain nor mutate it (expression
// evaluation does neither); matching rows are cloned and re-checked for
// liveness before fn sees them, exactly as in scan. A nil match accepts
// every row.
func (t *Table) scanWhere(match func(r Row) (bool, error), fn func(rowID uint64, r Row) bool) error {
	t.mu.Lock()
	numPages := len(t.pages)
	t.mu.Unlock()
	var matched []pageSlot
	for p := 0; p < numPages; p++ {
		t.mu.Lock()
		if p >= len(t.pages) {
			t.mu.Unlock()
			break
		}
		slots := t.decodePageLocked(p)
		matched = matched[:0]
		for _, s := range slots {
			if match != nil {
				ok, err := match(s.row)
				if err != nil {
					t.mu.Unlock()
					return err
				}
				if !ok {
					continue
				}
			}
			matched = append(matched, pageSlot{rowID: s.rowID, row: s.row.Clone()})
		}
		t.mu.Unlock()
		for _, s := range matched {
			// Skip rows that moved or died since the snapshot.
			t.mu.Lock()
			l, live := t.loc[s.rowID]
			t.mu.Unlock()
			if !live || l.page != p {
				continue
			}
			if !fn(s.rowID, s.row) {
				return nil
			}
		}
	}
	t.mu.Lock()
	matched = matched[:0]
	for _, s := range t.tail {
		if match != nil {
			ok, err := match(s.row)
			if err != nil {
				t.mu.Unlock()
				return err
			}
			if !ok {
				continue
			}
		}
		matched = append(matched, pageSlot{rowID: s.rowID, row: s.row.Clone()})
	}
	t.mu.Unlock()
	for _, s := range matched {
		if !fn(s.rowID, s.row) {
			return nil
		}
	}
	return nil
}

// scanCold is scan for bulk readers like the dump tool: it reads the sealed
// pages "from disk" — paying the engine's miss latency per page and not
// loading them into the buffer pool (a dirty resident page is written back
// first, so the disk image is current) — because a bulk copy neither benefits
// from nor should pollute the cache. This is what makes replica-creation time
// proportional to database size, as in the paper (a 200 MB copy took about
// two minutes on their hardware).
func (t *Table) scanCold(fn func(rowID uint64, r Row) bool) {
	t.mu.Lock()
	numPages := len(t.pages)
	t.mu.Unlock()
	lat := t.engine.cfg.MissLatency
	for p := 0; p < numPages; p++ {
		t.mu.Lock()
		if p >= len(t.pages) {
			t.mu.Unlock()
			break
		}
		// The resident image may be newer than the disk image: write it back
		// first, so the bytes carry every row change made so far.
		t.engine.pool.Flush(t.pageKey(p))
		enc := t.pages[p].image()
		t.mu.Unlock()
		if lat > 0 {
			time.Sleep(lat)
		}
		slots, err := decodePage(enc)
		if err != nil {
			t.corruptPagePanic(p, err)
		}
		for _, s := range slots {
			t.mu.Lock()
			l, live := t.loc[s.rowID]
			t.mu.Unlock()
			if !live || l.page != p {
				continue
			}
			if !fn(s.rowID, s.row.Clone()) {
				return
			}
		}
	}
	t.mu.Lock()
	tailCopy := make([]pageSlot, len(t.tail))
	for i, s := range t.tail {
		tailCopy[i] = pageSlot{rowID: s.rowID, row: s.row.Clone()}
	}
	t.mu.Unlock()
	if lat > 0 && len(tailCopy) > 0 {
		time.Sleep(lat)
	}
	for _, s := range tailCopy {
		if !fn(s.rowID, s.row) {
			return
		}
	}
}

// createIndex builds a secondary index over col (position colIdx).
func (t *Table) createIndex(name string, colIdx int, unique bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	colName := lower(t.schema.Cols[colIdx].Name)
	if _, exists := t.indexes[colName]; exists {
		return fmt.Errorf("sqldb: index on %s.%s already exists", t.schema.Table, colName)
	}
	idx := &index{name: name, col: colIdx, unique: unique, m: make(map[string][]uint64), ord: newOrderedKeys()}
	collect := func(s pageSlot) error {
		k := keyString(s.row[colIdx])
		if unique && len(idx.m[k]) > 0 {
			return fmt.Errorf("%w: duplicate value %s building unique index %s", ErrDuplicateKey, k, name)
		}
		idx.add(k, s.row[colIdx], s.rowID)
		return nil
	}
	for p := range t.pages {
		for _, s := range t.decodePageLocked(p) {
			if _, live := t.loc[s.rowID]; !live {
				continue
			}
			if err := collect(s); err != nil {
				return err
			}
		}
	}
	for _, s := range t.tail {
		if err := collect(s); err != nil {
			return err
		}
	}
	t.indexes[colName] = idx
	return nil
}

func (ix *index) remove(key string, rowID uint64) {
	ids := ix.m[key]
	for i, id := range ids {
		if id == rowID {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(ix.m, key)
		ix.ord.drop(key)
	} else {
		ix.m[key] = ids
	}
}
