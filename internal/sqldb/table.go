package sqldb

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// rowLoc locates a row: either a sealed page slot or the open tail page.
type rowLoc struct {
	page int32 // -1 means the tail page
	slot int32
}

// noRow is the row directory's entry for a row ID with no live row.
var noRow = rowLoc{page: -2, slot: -2}

// index is a secondary (or unique) hash index on one column. m is the only
// holder of its keys; ord is the sorted view a range traversal derives from m.
type index struct {
	name   string
	col    int // column position
	unique bool
	m      map[string][]uint64 // key -> rowIDs
	ord    orderedKeys
}

// add registers a rowID under key. Called with the table latch held.
func (ix *index) add(key string, rowID uint64) {
	ids := ix.m[key]
	ix.m[key] = append(ids, rowID)
	if len(ids) == 0 {
		ix.ord.add(key)
	}
}

// insert registers rowID under v's key, refusing a second row for a key of a
// unique index. Called with the table latch held.
func (ix *index) insert(v Value, rowID uint64) error {
	k := keyOf(v)
	if ix.unique && len(ix.m[k]) > 0 {
		return fmt.Errorf("%w: duplicate value %s building unique index %s", ErrDuplicateKey, v, ix.name)
	}
	ix.add(k, rowID)
	return nil
}

// Table holds the physical storage of one table: sealed pages (the "disk"),
// an open tail page of rows, a primary-key index, and any secondary indexes.
// Reads and writes of sealed pages go through the engine's write-back buffer
// pool: the newest contents of a resident page are the pool's, not the sealed
// page's image. The per-table mutex is a short-duration latch protecting
// physical structures — this table's resident pages included; transactional
// isolation is provided by the lock manager, not by this mutex.
type Table struct {
	schema *Schema
	engine *Engine
	qname  string // qualified "db/table" name used for locks and pool keys

	mu        sync.Mutex
	pages     []*sealedPage
	tail      []pageSlot
	loc       []rowLoc          // row directory, indexed by row ID
	pk        map[string]uint64 // pk key -> rowID; nil when no primary key
	pkOrd     orderedKeys       // sorted view of pk's keys
	indexes   map[string]*index // by lower-cased column name
	nextRowID uint64
	liveRows  int
	byteSize  int64
	oldRow    Row // scratch decoded into under mu: a replaced row, or a key's leading values
}

func newTable(e *Engine, qname string, schema *Schema) *Table {
	t := &Table{
		schema:  schema,
		engine:  e,
		qname:   qname,
		indexes: make(map[string]*index),
	}
	if schema.PKIdx >= 0 {
		t.pk = make(map[string]uint64)
	}
	return t
}

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

// Key classes: a key's first byte, in the order Compare gives the types.
const (
	keyNull byte = iota
	keyNumber
	keyText
	keyBool
)

// appendKey appends v's key to buf. A key is the one form of a value that
// every map in the engine is keyed by — the primary-key and index maps, a row
// lock, the executor's hash joins and sets — and values Compare calls equal
// have equal keys, whose bytes sort as Compare orders the values. It is a
// class byte followed by the value: for a number, INT or FLOAT alike, the
// float64 it compares as, big-endian with the sign bit set (every bit flipped
// for a negative) so that it sorts as bytes, −0 folded into +0, every NaN
// into one above +Inf, and trailing zero bytes dropped, so that a small
// integer keys in a few bytes; for TEXT its bytes; for BOOL 0 or 1. A key is
// never decoded: whoever needs the value reads it from the row.
func appendKey(buf []byte, v Value) []byte {
	switch v.Typ {
	case TypeInt, TypeFloat:
		f := v.AsFloat()
		bits := math.Float64bits(f)
		switch {
		case f != f:
			bits = 0x7ff8 << 48
		case f == 0:
			bits = 0
		}
		if bits>>63 == 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		buf = append(buf, keyNumber)
		for ; bits != 0; bits <<= 8 {
			buf = append(buf, byte(bits>>56))
		}
		return buf
	case TypeText:
		return append(append(buf, keyText), v.Str...)
	case TypeBool:
		b := byte(0)
		if v.Bool {
			b = 1
		}
		return append(buf, keyBool, b)
	}
	return append(buf, keyNull)
}

// keyOf returns v's key (see appendKey) as a string.
func keyOf(v Value) string {
	var kb [32]byte
	return string(appendKey(kb[:0], v))
}

// keyChange returns the index keys of a column's value before and after an
// update, and whether they differ. An identical value has an identical key,
// so only a column that changed pays for its two key strings.
func keyChange(was, now Value) (oldKey, newKey string, changed bool) {
	if was == now {
		return "", "", false
	}
	oldKey, newKey = keyOf(was), keyOf(now)
	return oldKey, newKey, oldKey != newKey
}

// orderedKeys is the sorted view of a hash index's distinct keys. It holds
// nothing until the first range traversal derives it from the index's own
// map; from then on add and drop keep it current, so an index nothing
// range-scans pays no memory or time for ordering, and one that is scanned
// sorts once. It shares its strings with the map. Guarded by the owning
// table's latch.
type orderedKeys struct {
	ord []string // ascending; nil until a range traversal builds it
}

// deriveKeys builds the sorted view from the keys of the hash index m.
func deriveKeys[V any](m map[string]V) []string {
	ord := make([]string, 0, len(m))
	for k := range m {
		ord = append(ord, k)
	}
	sort.Strings(ord)
	return ord
}

// add records that key k entered the index.
func (o *orderedKeys) add(k string) {
	if o.ord == nil {
		return
	}
	i := sort.SearchStrings(o.ord, k)
	o.ord = append(o.ord, "")
	copy(o.ord[i+1:], o.ord[i:])
	o.ord[i] = k
}

// drop records that key k left the index.
func (o *orderedKeys) drop(k string) {
	if o.ord == nil {
		return
	}
	if i := sort.SearchStrings(o.ord, k); i < len(o.ord) && o.ord[i] == k {
		o.ord = append(o.ord[:i], o.ord[i+1:]...)
	}
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

// scanRange calls fn for every key of the hash index m whose value lies
// within bounds, in ascending value order, deriving o — m's sorted view — on
// first use. The bounds are keyed once and the view searched by bytes.
func scanRange[V any](o *orderedKeys, m map[string]V, b rangeBounds, fn func(k string)) {
	if o.ord == nil {
		o.ord = deriveKeys(m)
	}
	ord := o.ord
	if len(ord) > 0 && ord[0][0] == keyNull {
		ord = ord[1:] // NULL sorts first and matches no bound
	}
	if b.hasLo {
		lo := keyOf(b.lo)
		i := sort.SearchStrings(ord, lo)
		if !b.loIncl && i < len(ord) && ord[i] == lo {
			i++
		}
		ord = ord[i:]
	}
	if b.hasHi {
		hi := keyOf(b.hi)
		i := sort.SearchStrings(ord, hi)
		if b.hiIncl && i < len(ord) && ord[i] == hi {
			i++
		}
		ord = ord[:i]
	}
	for _, k := range ord {
		fn(k)
	}
}

// locOf returns where row id lives, and whether it is live. An ID past the
// end of the directory was never stored. Called with t.mu held.
func (t *Table) locOf(id uint64) (rowLoc, bool) {
	if id >= uint64(len(t.loc)) || t.loc[id] == noRow {
		return noRow, false
	}
	return t.loc[id], true
}

// setLoc points row id's directory entry at l (noRow: no live row), growing
// the directory over IDs minted but not yet stored. Called with t.mu held.
func (t *Table) setLoc(id uint64, l rowLoc) {
	for uint64(len(t.loc)) <= id {
		t.loc = append(t.loc, noRow)
	}
	t.loc[id] = l
}

// pkKey returns the primary-key index key of a row, or "" when the table has
// no primary key.
func (t *Table) pkKey(r Row) string {
	if t.schema.PKIdx < 0 {
		return ""
	}
	return keyOf(r[t.schema.PKIdx])
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
	enc := encodeRowString(r)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tail = append(t.tail, pageSlot{rowID: rowID, enc: enc})
	t.setLoc(rowID, rowLoc{page: -1, slot: int32(len(t.tail) - 1)})
	if t.pk != nil {
		k := t.pkKey(r)
		t.pk[k] = rowID
		t.pkOrd.add(k)
	}
	for _, idx := range t.indexes {
		idx.add(keyOf(r[idx.col]), rowID)
	}
	t.liveRows++
	t.byteSize += int64(len(enc))
	if len(t.tail) >= pageCapacity {
		t.sealTail()
	}
}

// load fills a new table, its indexes already created, with a dump's rows
// under one latch hold. A row goes into its slot as the encoding it arrived
// as; only its leading values through the last key column are read, in one
// pass, for the primary-key and index maps. Tail pages are sealed and handed
// to the pool as insertRowPhysical does. A unique index refuses a duplicate
// as createIndex does.
func (t *Table) load(rows []string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	pk := t.schema.PKIdx
	if pk >= 0 {
		t.pk = make(map[string]uint64, len(rows))
	}
	// Every row ranges over the indexes, so as a slice, not the map; keys
	// holds a row's leading values through the last key column.
	idxs := make([]*index, 0, len(t.indexes))
	last := pk
	for _, idx := range t.indexes {
		idxs, last = append(idxs, idx), max(last, idx.col)
	}
	keys := make(Row, last+1)
	for _, enc := range rows {
		if err := decodeLeading(enc, keys); err != nil {
			return err
		}
		t.nextRowID++
		id := t.nextRowID
		t.tail = append(t.tail, pageSlot{rowID: id, enc: enc})
		t.setLoc(id, rowLoc{page: -1, slot: int32(len(t.tail) - 1)})
		if pk >= 0 {
			t.pk[keyOf(keys[pk])] = id
		}
		for _, idx := range idxs {
			if err := idx.insert(keys[idx.col], id); err != nil {
				return err
			}
		}
		t.liveRows++
		t.byteSize += int64(len(enc))
		if len(t.tail) >= pageCapacity {
			t.sealTail()
		}
	}
	return nil
}

// sealTail turns the full tail page into a sealed page. Nothing is encoded
// here: the page starts out resident and dirty, and gets its disk image when
// it first leaves the pool. Called with t.mu held.
func (t *Table) sealTail() {
	n := len(t.pages)
	page := &sealedPage{}
	t.pages = append(t.pages, page)
	for i, s := range t.tail {
		t.setLoc(s.rowID, rowLoc{page: int32(n), slot: int32(i)})
	}
	t.engine.pool.Put(t.pageKey(n), page, t.tail)
	t.tail = nil
}

// pageKey builds the buffer-pool key of a sealed page.
func (t *Table) pageKey(page int) PageKey {
	return PageKey{Table: t.qname, Page: page}
}

// corruptPagePanic reports a sealed page that does not decode. Images are
// written only by residentPage.encode, so this is a bug, never input.
func (t *Table) corruptPagePanic(page int, err error) {
	panic(fmt.Sprintf("sqldb: corrupt page %s/%d: %v", t.schema.Table, page, err))
}

// deleteRowPhysical removes a row from storage and indexes. Missing rows are
// ignored (undo after partial failure).
func (t *Table) deleteRowPhysical(rowID uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.locOf(rowID)
	if !ok {
		return
	}
	var oldEnc string
	var moved []pageSlot // the slots behind the deleted one, now one position up
	if l.page == -1 {
		oldEnc = t.tail[l.slot].enc
		t.tail = append(t.tail[:l.slot], t.tail[l.slot+1:]...)
		moved = t.tail[l.slot:]
	} else {
		t.updatePageLocked(int(l.page), func(pg *residentPage) {
			oldEnc = pg.slots[l.slot].enc
			last := len(pg.slots) - 1
			copy(pg.slots[l.slot:], pg.slots[l.slot+1:])
			pg.slots[last] = pageSlot{}
			pg.slots = pg.slots[:last]
			moved = pg.slots[l.slot:]
		})
	}
	for i, s := range moved {
		t.setLoc(s.rowID, rowLoc{page: l.page, slot: l.slot + int32(i)})
	}
	t.setLoc(rowID, noRow)
	old := t.decodeOldLocked(int(l.page), oldEnc)
	defer clear(old)
	if t.pk != nil {
		k := t.pkKey(old)
		delete(t.pk, k)
		t.pkOrd.drop(k)
	}
	for _, idx := range t.indexes {
		idx.remove(keyOf(old[idx.col]), rowID)
	}
	t.liveRows--
	t.byteSize -= int64(len(oldEnc))
}

// updateRowPhysical replaces the image of a row in place, maintaining
// indexes.
func (t *Table) updateRowPhysical(rowID uint64, newRow Row) {
	enc := encodeRowString(newRow)
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.locOf(rowID)
	if !ok {
		return
	}
	var oldEnc string
	if l.page == -1 {
		oldEnc, t.tail[l.slot].enc = t.tail[l.slot].enc, enc
	} else {
		t.updatePageLocked(int(l.page), func(pg *residentPage) {
			oldEnc, pg.slots[l.slot].enc = pg.slots[l.slot].enc, enc
		})
	}
	old := t.decodeOldLocked(int(l.page), oldEnc)
	defer clear(old)
	if pk := t.schema.PKIdx; t.pk != nil {
		if oldKey, newKey, changed := keyChange(old[pk], newRow[pk]); changed {
			delete(t.pk, oldKey)
			t.pkOrd.drop(oldKey)
			t.pk[newKey] = rowID
			t.pkOrd.add(newKey)
		}
	}
	for _, idx := range t.indexes {
		if ok, nk, changed := keyChange(old[idx.col], newRow[idx.col]); changed {
			idx.remove(ok, rowID)
			idx.add(nk, rowID)
		}
	}
	t.byteSize += int64(len(enc) - len(oldEnc))
}

// residentLocked fetches a sealed page via the buffer pool. Called with t.mu
// held, which is what makes the pool's own page safe to read: every edit of
// it holds this latch too.
func (t *Table) residentLocked(page int) *residentPage {
	pg, err := t.engine.pool.Get(t.pageKey(page), t.pages[page])
	if err != nil {
		t.corruptPagePanic(page, err)
	}
	return pg
}

// updatePageLocked edits a sealed page in the pool (see BufferPool.Update).
// Called with t.mu held.
func (t *Table) updatePageLocked(page int, edit func(*residentPage)) {
	if err := t.engine.pool.Update(t.pageKey(page), t.pages[page], edit); err != nil {
		t.corruptPagePanic(page, err)
	}
}

// encAtLocked returns the stored encoding of the row at l. Called with t.mu
// held.
func (t *Table) encAtLocked(l rowLoc) string {
	if l.page == -1 {
		return t.tail[l.slot].enc
	}
	return t.residentLocked(int(l.page)).slots[l.slot].enc
}

// decode decodes a stored row of page (-1: the tail) into dst as decodeRow
// does, counting it in PoolStats.RowsDecoded.
func (t *Table) decode(page int, enc string, dst Row) Row {
	row, err := decodeRow(enc, dst)
	if err != nil {
		t.corruptPagePanic(page, err)
	}
	t.engine.pool.rowsDecoded.Add(1)
	return row
}

// decodeOldLocked decodes the encoding an update or delete just replaced
// into the table's own scratch row, for the index and size bookkeeping that
// follows. The caller clears the row before releasing t.mu, so it keeps no
// encoding alive. Called with t.mu held.
func (t *Table) decodeOldLocked(page int, enc string) Row {
	t.oldRow = t.decode(page, enc, t.oldRow)
	return t.oldRow
}

// readPKRowInto looks up the primary-key row with key and decodes it into dst
// under a single latch acquisition, returning the (possibly grown) destination
// slice, the rowID, and whether the key exists.
func (t *Table) readPKRowInto(key string, dst Row) (Row, uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk == nil {
		return dst, 0, false
	}
	id, ok := t.pk[key]
	if !ok {
		return dst, 0, false
	}
	l, ok := t.locOf(id)
	if !ok {
		return dst, 0, false
	}
	return t.decode(int(l.page), t.encAtLocked(l), dst), id, true
}

// getRowsBatch decodes the rows with the given IDs under a single latch
// acquisition and appends them to dst, all cut from one slab. IDs that no
// longer exist are skipped and the others moved to the front of ids, so the
// appended rows line up with the IDs they were read by. Readers call it only
// after the row locks are held.
func (t *Table) getRowsBatch(ids []uint64, dst []Row) []Row {
	w := len(t.schema.Cols)
	slab := make([]Value, len(ids)*w)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, id := range ids {
		if l, ok := t.locOf(id); ok {
			ids[n] = id
			n++
			dst = append(dst, t.decode(int(l.page), t.encAtLocked(l), slab[:w:w]))
			slab = slab[w:]
		}
	}
	return dst
}

// pkValues reads, under a single latch acquisition, the primary-key values of
// the leading ids whose rows share a page, and returns how many ids that
// covers, the ones among them that exist — moved to the front of ids — and
// their keys, appended to dst, in step. Stopping at the page boundary keeps
// the order in which a caller that goes on to fetch those rows touches pages
// what it would be one row at a time, so the pool sees the same hits and
// misses. A key is decoded from its row's encoding alone. The table has a
// primary key.
func (t *Table) pkValues(ids []uint64, dst []Value) (n int, live []uint64, pks []Value) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pk := t.schema.PKIdx
	if len(t.oldRow) <= pk {
		t.oldRow = make(Row, pk+1)
	}
	key := t.oldRow[:pk+1] // a row's leading values through the key
	defer clear(key)
	live, pks = ids[:0], dst
	var first rowLoc
	for ; n < len(ids); n++ {
		l, ok := t.locOf(ids[n])
		if !ok {
			continue
		}
		if len(live) == 0 {
			first = l
		} else if l.page != first.page {
			break
		}
		live = append(live, ids[n])
		if err := decodeLeading(t.encAtLocked(l), key); err != nil {
			t.corruptPagePanic(int(l.page), err)
		}
		pks = append(pks, key[pk])
	}
	return n, live, pks
}

// lookupPK returns the rowID for a primary-key value.
func (t *Table) lookupPK(v Value) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk == nil {
		return 0, false
	}
	id, ok := t.pk[keyOf(v)]
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
	ids := idx.m[keyOf(v)]
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
	scanRange(&t.pkOrd, t.pk, b, func(k string) {
		out = append(out, t.pk[k])
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
	scanRange(&idx.ord, idx.m, b, func(k string) {
		out = append(out, idx.m[k]...)
	})
	return out, true
}

// scan invokes fn for every live row (a row of its own) until fn returns
// false.
func (t *Table) scan(fn func(rowID uint64, r Row) bool) {
	_ = t.scanWhere(nil, fn) // only a predicate can fail
}

// scanWhere invokes fn for every live row that match accepts, until fn
// returns false. It snapshots page identity under the latch and then works
// page by page, so concurrent writers latch in between pages. Each row is
// decoded under the page latch and match evaluated on it there: a row match
// rejects was decoded into a scratch row the next one reuses, so only
// matching rows cost an allocation. match must not retain the row
// (expression evaluation does not). Matching rows are re-checked for
// liveness before fn sees them, and are fn's to keep. A nil match accepts
// every row.
func (t *Table) scanWhere(match func(r Row) (bool, error), fn func(rowID uint64, r Row) bool) error {
	t.mu.Lock()
	numPages := len(t.pages)
	t.mu.Unlock()
	type idRow struct {
		id  uint64
		row Row
	}
	var matched []idRow
	var scratch Row
	// collect decodes the rows of slots that match accepts into matched.
	// Called with t.mu held.
	collect := func(page int, slots []pageSlot) error {
		matched = matched[:0]
		for _, s := range slots {
			row := t.decode(page, s.enc, scratch)
			if match != nil {
				if ok, err := match(row); err != nil {
					return err
				} else if !ok {
					scratch = row
					continue
				}
			}
			matched = append(matched, idRow{s.rowID, row})
			scratch = nil
		}
		return nil
	}
	for p := 0; p < numPages; p++ {
		t.mu.Lock()
		if p >= len(t.pages) {
			t.mu.Unlock()
			break
		}
		err := collect(p, t.residentLocked(p).slots)
		t.mu.Unlock()
		if err != nil {
			return err
		}
		for _, m := range matched {
			// Skip rows that moved or died since the snapshot.
			t.mu.Lock()
			l, live := t.locOf(m.id)
			t.mu.Unlock()
			if !live || int(l.page) != p {
				continue
			}
			if !fn(m.id, m.row) {
				return nil
			}
		}
	}
	t.mu.Lock()
	err := collect(-1, t.tail)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	for _, m := range matched {
		if !fn(m.id, m.row) {
			return nil
		}
	}
	return nil
}

// createIndex builds a secondary index over col (position colIdx).
func (t *Table) createIndex(name string, colIdx int, unique bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	colName := lower(t.schema.Cols[colIdx].Name)
	if _, exists := t.indexes[colName]; exists {
		return fmt.Errorf("sqldb: index on %s.%s already exists", t.schema.Table, colName)
	}
	idx := &index{name: name, col: colIdx, unique: unique, m: make(map[string][]uint64)}
	key := make(Row, colIdx+1) // a row's leading values through col
	collect := func(page int, s pageSlot) error {
		if err := decodeLeading(s.enc, key); err != nil {
			t.corruptPagePanic(page, err)
		}
		return idx.insert(key[colIdx], s.rowID)
	}
	for p := range t.pages {
		for _, s := range t.residentLocked(p).slots {
			if _, live := t.locOf(s.rowID); !live {
				continue
			}
			if err := collect(p, s); err != nil {
				return err
			}
		}
	}
	for _, s := range t.tail {
		if err := collect(-1, s); err != nil {
			return err
		}
	}
	t.indexes[colName] = idx
	return nil
}

// remove unregisters a rowID from under key.
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
