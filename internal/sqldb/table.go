package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// A key's postings are its rows' identities (Table.identity), kept in
// ascending order, so that a read takes a key's first rows in primary-key
// order from the index alone, opening no page.
// An index is pending until buildPending installs it: m is nil, no plan sees
// it (hasIndex), and pending logs the edits the build replays.
type index struct {
	name    string
	col     int // column position
	unique  bool
	m       map[string][]string // key -> postings, ascending
	ord     orderedKeys
	pending *pendingIndex
}

// pendingIndex is an index being built online, as Mohan and Narang build one
// without quiescing updates: every add and remove that writes and their
// undo made since the slots the build starts from were taken, in order, and
// for an index a restore left pending, those slots — its image, which nothing
// edits (CREATE INDEX keeps its snapshot itself).
type pendingIndex struct {
	image []pageSlot
	edits []indexEdit
}

// indexEdit is one add (or remove) of the posting id under key.
type indexEdit struct {
	key, id string
	add     bool
}

// add registers the posting id under key, in order. Called with the table
// latch held.
func (ix *index) add(key, id string) {
	if p := ix.pending; p != nil {
		p.edits = append(p.edits, indexEdit{key, id, true})
		return
	}
	ids := ix.m[key]
	i, _ := slices.BinarySearch(ids, id)
	ix.m[key] = slices.Insert(ids, i, id)
	if len(ids) == 0 {
		ix.ord.add(key)
	}
}

// remove unregisters the posting id from under key.
func (ix *index) remove(key, id string) {
	if p := ix.pending; p != nil {
		p.edits = append(p.edits, indexEdit{key, id, false})
		return
	}
	ids := ix.m[key]
	if i, found := slices.BinarySearch(ids, id); found {
		ids = slices.Delete(ids, i, i+1)
	}
	if len(ids) == 0 {
		delete(ix.m, key)
		ix.ord.drop(key)
	} else {
		ix.m[key] = ids
	}
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
	qname  string // qualified "db/table" name, for the history recorder

	// inc is the table's incarnation, the engine-wide number its pages and
	// locks are keyed by: a table dropped and created again, or replaced by
	// a restore, is a new incarnation that shares nothing with the old one.
	// dead is set when the incarnation leaves the catalog, which takes its X
	// lock, so a statement that holds any lock on it and finds it alive
	// reads a live table. indexGen counts its index installs, for the plans
	// bound to it (stmtPlan.current).
	inc      uint32
	dead     atomic.Bool
	indexGen atomic.Uint32

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
	oldRow    Row // scratch decoded into under mu: a replaced row
}

func newTable(e *Engine, db string, schema *Schema) *Table {
	t := &Table{
		schema:  schema,
		engine:  e,
		qname:   db + "/" + lower(schema.Table),
		inc:     e.incarnations.Add(1),
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
func appendKey(buf []byte, v *Value) []byte {
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
	return string(appendKey(kb[:0], &v))
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

// identity returns the posting that names row r, stored as rowID, in the
// secondary indexes: its primary key's key, the string the pk map holds it
// by, or, in a table without a primary key, its row ID, 8 bytes big-endian.
// Postings sort as the primary key orders its values.
func (t *Table) identity(r Row, rowID uint64) string {
	if pk := t.schema.PKIdx; pk >= 0 {
		return keyOf(r[pk])
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rowID)
	return string(b[:])
}

// rowIDOf returns the row ID of the live row the posting id names. Called
// with t.mu held.
func (t *Table) rowIDOf(id string) (uint64, bool) {
	if t.pk != nil {
		rowID, ok := t.pk[id]
		return rowID, ok
	}
	rowID := binary.BigEndian.Uint64([]byte(id))
	_, ok := t.locOf(rowID)
	return rowID, ok
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
	if t.pk != nil || len(t.indexes) > 0 {
		id := t.identity(r, rowID) // one string, for the pk map and every posting
		if t.pk != nil {
			t.pk[id] = rowID
			t.pkOrd.add(id)
		}
		for _, idx := range t.indexes {
			idx.add(keyOf(r[idx.col]), id)
		}
	}
	t.liveRows++
	t.byteSize += int64(len(enc))
	if len(t.tail) >= pageCapacity {
		t.sealTail(&sealedPage{})
	}
}

// load fills a new table, its indexes already registered, with a dump's rows
// under one latch hold. A row goes into its slot as the encoding it arrived
// as, and buildKeys reads its key columns for the primary-key map; each index
// is left pending on the image's slots (see buildPending). Full pages are
// sealed as sealTail seals them but not yet put into the buffer pool: load
// returns their slots for place.
func (t *Table) load(rows []string) ([][]pageSlot, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slots := make([]pageSlot, len(rows))
	for i, enc := range rows {
		slots[i] = pageSlot{rowID: t.nextRowID + uint64(i) + 1, enc: enc}
		t.byteSize += int64(len(enc))
	}
	for _, idx := range t.indexes {
		idx.pending = &pendingIndex{image: slots}
	}
	if err := t.buildKeys(slots, t.pk != nil, nil); err != nil {
		return nil, err
	}
	t.nextRowID += uint64(len(rows))
	t.liveRows += len(rows)
	// A page's slots are an array of its own, so that evicting the page
	// frees its rows; the pages are one array, which t.pages keeps whole.
	sealed := make([]sealedPage, len(slots)/pageCapacity)
	pages := make([][]pageSlot, len(sealed))
	t.loc = slices.Grow(t.loc, len(slots)+1)
	for p := range sealed {
		pages[p], slots = slices.Clone(slots[:pageCapacity]), slots[pageCapacity:]
		for i, s := range pages[p] {
			t.setLoc(s.rowID, rowLoc{page: int32(p), slot: int32(i)})
		}
		t.pages = append(t.pages, &sealed[p])
	}
	t.tail = append([]pageSlot(nil), slots...)
	for i, s := range t.tail {
		t.setLoc(s.rowID, rowLoc{page: -1, slot: int32(i)})
	}
	return pages, nil
}

// place puts the pages load sealed into the buffer pool, resident and dirty.
func (t *Table) place(pages [][]pageSlot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for p, slots := range pages {
		t.engine.pool.Put(t.pageKey(p), t.pages[p], slots)
	}
}

// buildPending is the one index build: it builds idxs, pending indexes of
// the table registered together on image, online — from image's slots and
// outside the latch, and then, under it, replays the edits that writes and
// their undo made meanwhile, checks that a unique index's replayed keys other
// than NULL name one row each (the image's were checked as they were
// grouped), and installs each map, bumping indexGen so that the plans bound
// before see them. beforeInstall, unless nil, runs between the build and the install.
// An index another build installed in between is left as it is; one that
// fails its check stays pending.
func (t *Table) buildPending(idxs []*index, image []pageSlot, beforeInstall func() error) error {
	built := make([]*index, len(idxs))
	for i, idx := range idxs {
		built[i] = &index{name: idx.name, col: idx.col, unique: idx.unique}
	}
	if err := t.buildKeys(image, false, built); err != nil {
		return err
	}
	if beforeInstall != nil {
		if err := beforeInstall(); err != nil {
			return err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.indexGen.Add(1)
	for i, idx := range idxs {
		if idx.pending == nil {
			continue
		}
		for _, ed := range idx.pending.edits {
			if ed.add {
				built[i].add(ed.key, ed.id)
			} else {
				built[i].remove(ed.key, ed.id)
			}
		}
		for _, ed := range idx.pending.edits {
			if ids := built[i].m[ed.key]; idx.unique && len(ids) > 1 && ed.key[0] != keyNull {
				rowID, _ := t.rowIDOf(ids[0])
				l, _ := t.locOf(rowID)
				row := t.decode(int(l.page), t.encAtLocked(l), nil) // buildKeys's text
				return fmt.Errorf("%w: duplicate value %s building unique index %s", ErrDuplicateKey, row[idx.col], idx.name)
			}
		}
		idx.m, idx.pending = built[i].m, nil
	}
	return nil
}

// buildRestored builds the indexes a restore left pending on the table, all
// from its image, in one pass (buildPending).
func (t *Table) buildRestored() error {
	var idxs []*index
	var image []pageSlot
	t.mu.Lock()
	for _, idx := range t.indexes {
		if idx.pending != nil && idx.pending.image != nil {
			idxs, image = append(idxs, idx), idx.pending.image
		}
	}
	t.mu.Unlock()
	if len(idxs) == 0 {
		return nil
	}
	return t.buildPending(idxs, image, nil)
}

// slotsLocked returns the slots of every live row, page by page and then the
// tail. Called with t.mu held.
func (t *Table) slotsLocked() []pageSlot {
	slots := make([]pageSlot, 0, t.liveRows)
	for p := range t.pages {
		pg := t.residentLocked(p)
		for i := range pg.len() {
			slots = append(slots, pg.slot(i))
		}
	}
	return append(slots, t.tail...)
}

// buildKeys fills the primary-key map (when pk) and the empty indexes idxs
// with the rows of slots, each map made once at its final size: a row is
// decoded once, a column's keys are cut from one string, pinned while any of
// them lives, and an index groups its rows by key in one map pass (where a
// unique one refuses a repeat of any key but NULL's) and holds a key's
// postings (Table.identity: the primary-key keys, cut as a column's are, or
// the row IDs, cut from one string of them), in ascending order, as a capped
// sub-slice of one array. Called with t.mu held.
func (t *Table) buildKeys(slots []pageSlot, pk bool, idxs []*index) error {
	cols := make([]int, 0, len(idxs)+1)
	if t.schema.PKIdx >= 0 && (pk || len(idxs) > 0) {
		cols = append(cols, t.schema.PKIdx)
	}
	for _, idx := range idxs {
		cols = append(cols, idx.col)
	}
	n, vals := len(slots), make(Row, slices.Max(append(cols, 0))+1) // through the last key column, or one
	bufs, offs := make([][]byte, len(cols)), make([]int, len(cols)*(n+1))
	for i, s := range slots {
		if err := decodeLeading(s.enc, vals); err != nil {
			return err
		}
		for c, col := range cols {
			bufs[c] = appendKey(bufs[c], &vals[col])
			offs[c*(n+1)+i+1] = len(bufs[c])
			if i == 0 { // room for n keys as long as the first
				bufs[c] = slices.Grow(bufs[c], (n-1)*len(bufs[c]))
			}
		}
	}
	keys := make([]string, len(cols))
	for c := range cols {
		keys[c] = string(bufs[c])
	}
	key := func(c, i int) string { return keys[c][offs[c*(n+1)+i]:offs[c*(n+1)+i+1]] }
	ident := func(i int) string { return key(0, i) }
	if t.schema.PKIdx < 0 && len(idxs) > 0 {
		ids := make([]byte, 0, 8*n)
		for _, s := range slots {
			ids = binary.BigEndian.AppendUint64(ids, s.rowID)
		}
		rowIDs := string(ids)
		ident = func(i int) string { return rowIDs[8*i : 8*i+8] }
	}
	if pk {
		t.pk = make(map[string]uint64, n)
		for i, s := range slots {
			t.pk[key(0, i)] = s.rowID
		}
	}
	for x, idx := range idxs {
		c := len(cols) - len(idxs) + x
		group, of := make(map[string]int32), make([]int32, n)
		var distinct []string // group g's key
		var end []int32       // group g's row count, then where its postings end in all
		for i := range slots {
			k := key(c, i)
			g, seen := group[k]
			if seen && idx.unique && k[0] != keyNull { // NULL repeats nothing, as in SQL
				_ = decodeLeading(slots[i].enc, vals) // it decoded above
				return fmt.Errorf("%w: duplicate value %s building unique index %s", ErrDuplicateKey, vals[idx.col], idx.name)
			} else if !seen {
				g = int32(len(end))
				group[k], distinct, end = g, append(distinct, k), append(end, 0)
			}
			of[i] = g
			end[g]++
		}
		for g := 1; g < len(end); g++ {
			end[g] += end[g-1]
		}
		start, all := slices.Clone(end), make([]string, n)
		for i := n - 1; i >= 0; i-- {
			start[of[i]]--
			all[start[of[i]]] = ident(i)
		}
		idx.m = make(map[string][]string, len(distinct))
		for g, k := range distinct {
			ids := all[start[g]:end[g]:end[g]]
			if !slices.IsSorted(ids) { // sorted already where rows were stored in key order
				slices.Sort(ids)
			}
			idx.m[k] = ids
		}
	}
	return nil
}

// sealTail turns the full tail page into a sealed page, the empty one given.
// Nothing is encoded here: the page starts out resident and dirty, and gets
// its disk image when it first leaves the pool. Called with t.mu held.
func (t *Table) sealTail(page *sealedPage) {
	n := len(t.pages)
	t.pages = append(t.pages, page)
	for i, s := range t.tail {
		t.setLoc(s.rowID, rowLoc{page: int32(n), slot: int32(i)})
	}
	t.engine.pool.Put(t.pageKey(n), page, t.tail)
	t.tail = nil
}

// pageKey builds the buffer-pool key of a sealed page.
func (t *Table) pageKey(page int) PageKey {
	return PageKey{Table: t.inc, Page: uint32(page)}
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
	if t.pk != nil || len(t.indexes) > 0 {
		id := t.identity(old, rowID)
		if t.pk != nil {
			delete(t.pk, id)
			t.pkOrd.drop(id)
		}
		for _, idx := range t.indexes {
			idx.remove(keyOf(old[idx.col]), id)
		}
	}
	t.liveRows--
	t.byteSize -= int64(len(oldEnc))
}

// updateRowPhysical replaces the image of a row in place, maintaining
// indexes: a changed column's posting moves to its new key, and when the
// primary key changes, every index re-keys the row's posting.
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
	var id, newID string // the row's identity before and after, once needed
	if pk := t.schema.PKIdx; t.pk != nil {
		if oldKey, newKey, changed := keyChange(old[pk], newRow[pk]); changed {
			delete(t.pk, oldKey)
			t.pkOrd.drop(oldKey)
			t.pk[newKey] = rowID
			t.pkOrd.add(newKey)
			id, newID = oldKey, newKey
		}
	}
	for _, idx := range t.indexes {
		oldKey, newKey, changed := keyChange(old[idx.col], newRow[idx.col])
		if !changed {
			if id == newID {
				continue
			}
			oldKey = keyOf(old[idx.col])
			newKey = oldKey
		}
		if id == "" {
			id = t.identity(old, rowID)
			newID = id
		}
		idx.remove(oldKey, id)
		idx.add(newKey, newID)
	}
	t.byteSize += int64(len(enc) - len(oldEnc))
}

// residentLocked fetches a sealed page via the buffer pool. Called with t.mu
// held, which is what makes the page safe to read: every edit of it holds
// this latch too.
func (t *Table) residentLocked(page int) residentPage {
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
	return t.residentLocked(int(l.page)).slot(int(l.slot)).enc
}

// decode decodes a stored row of page (-1: the tail) into dst as DecodeRow
// does, counting it in PoolStats.RowsDecoded.
func (t *Table) decode(page int, enc string, dst Row) Row {
	row, err := DecodeRow(enc, dst)
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

// readPKRow looks up the primary-key row with key and decodes it into an
// arena row under a single latch acquisition, returning the row, its rowID,
// and whether the key exists.
func (t *Table) readPKRow(key string, a *arena) (Row, uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk == nil {
		return nil, 0, false
	}
	id, ok := t.pk[key]
	if !ok {
		return nil, 0, false
	}
	l, ok := t.locOf(id)
	if !ok {
		return nil, 0, false
	}
	return t.decode(int(l.page), t.encAtLocked(l), a.row(len(t.schema.Cols))), id, true
}

// getRowsBatch decodes the rows the primary-key keys name now into arena
// rows, under a single latch acquisition, and returns them in an arena list
// and, when ids is not nil, appends their row IDs to *ids in step. Keys no
// row holds are skipped. Readers call it only after the keys' row locks are
// held.
func (t *Table) getRowsBatch(keys []string, a *arena, ids *[]uint64) []Row {
	w := len(t.schema.Cols)
	rows := a.list(len(keys))
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range keys {
		id, ok := t.pk[k]
		if !ok {
			continue
		}
		l, _ := t.locOf(id)
		rows = append(rows, t.decode(int(l.page), t.encAtLocked(l), a.row(w)))
		if ids != nil {
			*ids = append(*ids, id)
		}
	}
	return rows
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

// lookupIndex returns the postings — primary-key keys — of v in the named
// column's index, which a plan saw installed (a table never loses an
// installed index), in ascending order or, with desc, descending: at most n
// of them (n < 0: every one), starting past the posting after ("": at the
// first).
func (t *Table) lookupIndex(col string, v Value, after string, desc bool, n int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.indexes[col].m[keyOf(v)]
	if after != "" {
		i, found := slices.BinarySearch(ids, after)
		if desc {
			ids = ids[:i]
		} else if found {
			ids = ids[i+1:]
		} else {
			ids = ids[i:]
		}
	}
	if n >= 0 && n < len(ids) {
		if desc {
			ids = ids[len(ids)-n:]
		} else {
			ids = ids[:n]
		}
	}
	out := slices.Clone(ids)
	if desc {
		slices.Reverse(out)
	}
	return out
}

// hasIndex reports whether col has an installed secondary index (col is
// lower-cased by the caller): while it is pending, plans scan.
func (t *Table) hasIndex(col string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.indexes[col]
	return ok && idx.pending == nil
}

// lookupPKRange returns the primary-key keys that lie within bounds, in
// ascending order.
func (t *Table) lookupPKRange(b rangeBounds) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk == nil {
		return nil
	}
	var out []string
	scanRange(&t.pkOrd, t.pk, b, func(k string) {
		out = append(out, k)
	})
	return out
}

// lookupIndexRange returns the postings whose indexed column value lies
// within bounds (ascending value order, then primary-key order), from the
// named column's index, installed as for lookupIndex.
func (t *Table) lookupIndexRange(col string, b rangeBounds) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.indexes[col]
	var out []string
	scanRange(&idx.ord, idx.m, b, func(k string) {
		out = append(out, idx.m[k]...)
	})
	return out
}

// scanWhere invokes fn for every live row that match accepts, until fn
// returns false. It snapshots page identity under the latch and then works
// page by page, so concurrent writers latch in between pages. Each row is
// decoded into an arena row under the page latch and match evaluated on it
// there: a row match rejects gives its room back to the next one, so the
// arena grows only by the matching rows. match must not retain the row
// (expression evaluation does not). Matching rows are re-checked for
// liveness before fn sees them, and stay valid while the arena is not reset.
// A nil match accepts every row.
func (t *Table) scanWhere(a *arena, match func(r Row) (bool, error), fn func(rowID uint64, r Row) bool) error {
	t.mu.Lock()
	numPages := len(t.pages)
	t.mu.Unlock()
	type idRow struct {
		id  uint64
		row Row
	}
	var matched []idRow
	w := len(t.schema.Cols)
	// collect decodes the rows of pg that match accepts into matched.
	// Called with t.mu held.
	collect := func(page int, pg residentPage) error {
		matched = matched[:0]
		for i := range pg.len() {
			s := pg.slot(i)
			row := t.decode(page, s.enc, a.row(w))
			if match != nil {
				if ok, err := match(row); err != nil {
					return err
				} else if !ok {
					a.unrow(w)
					continue
				}
			}
			matched = append(matched, idRow{s.rowID, row})
		}
		return nil
	}
	for p := 0; p < numPages; p++ {
		t.mu.Lock()
		if p >= len(t.pages) {
			t.mu.Unlock()
			break
		}
		err := collect(p, t.residentLocked(p))
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
	err := collect(-1, residentPage{slots: t.tail})
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

// createIndex builds a secondary index over col (position colIdx) online:
// it registers the index pending on a snapshot of the table's slots, which
// buildPending builds from while writers go on (beforeInstall as there), and
// takes it out again if the build fails.
func (t *Table) createIndex(name string, colIdx int, unique bool, beforeInstall func() error) error {
	colName := lower(t.schema.Cols[colIdx].Name)
	t.mu.Lock()
	if _, exists := t.indexes[colName]; exists {
		t.mu.Unlock()
		return fmt.Errorf("sqldb: index on %s.%s already exists", t.schema.Table, colName)
	}
	idx := &index{name: name, col: colIdx, unique: unique, pending: &pendingIndex{}}
	t.indexes[colName] = idx
	image := t.slotsLocked()
	t.mu.Unlock()
	err := t.buildPending([]*index{idx}, image, beforeInstall)
	if err != nil {
		t.mu.Lock()
		delete(t.indexes, colName)
		t.mu.Unlock()
	}
	return err
}
