package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"sdp/internal/wal"
)

// rowSlot is a decoded slot: a row and its ID.
type rowSlot struct {
	rowID uint64
	row   Row
}

// stored returns the slots a page holding rows keeps: each row's encoding.
func stored(rows ...rowSlot) []pageSlot {
	slots := make([]pageSlot, len(rows))
	for i, r := range rows {
		slots[i] = pageSlot{rowID: r.rowID, enc: encodeRowString(r.row)}
	}
	return slots
}

// encodePage builds the image of a page holding rows.
func encodePage(rows ...rowSlot) string {
	return (&residentPage{slots: stored(rows...)}).encode()
}

// imageBytes returns the page's image, or "" before its first write-back.
func (p *sealedPage) imageBytes() string {
	if im := p.img.Load(); im != nil {
		return im.enc
	}
	return ""
}

// sealedWith returns a sealed page whose image holds rows.
func sealedWith(rows ...rowSlot) *sealedPage {
	p := &sealedPage{}
	p.store(encodePage(rows...))
	return p
}

// decodeSlots decodes every slot into one slab, a row's room as wide as the
// widest row, as getRowsBatch decodes a batch.
func decodeSlots(slots []pageSlot) ([]rowSlot, error) {
	width := 0
	for _, s := range slots {
		n, _, err := rowArity(s.enc)
		if err != nil {
			return nil, err
		}
		width = max(width, n)
	}
	slab := make([]Value, len(slots)*width)
	out := make([]rowSlot, len(slots))
	for i, s := range slots {
		row, err := DecodeRow(s.enc, slab[:width:width])
		if err != nil {
			return nil, err
		}
		out[i], slab = rowSlot{s.rowID, row}, slab[width:]
	}
	return out, nil
}

// walkPage maps an image as the pool does on a miss, its directory checked,
// and then reads every slot from the directory as the pool's readers do.
func walkPage(img string) ([]pageSlot, error) {
	page := &sealedPage{}
	page.store(img)
	img, err := page.mapped()
	if err != nil {
		return nil, err
	}
	pg := residentPage{img: img}
	slots := make([]pageSlot, pg.len())
	for i := range slots {
		slots[i] = pg.slot(i)
	}
	return slots, nil
}

// refMapPage is the reference walkPage is held to: a directory check and
// slot walk in one loop, each slot the substring of the image its row
// occupies. The directory must fit the image, and the extents must be
// non-empty, in order, inside the image, and end exactly where it ends.
func refMapPage(img string) ([]pageSlot, error) {
	if len(img) < 4 {
		return nil, fmt.Errorf("no slot count")
	}
	n := uint64(binary.LittleEndian.Uint32([]byte(img)))
	if n > uint64(len(img)-4)/13 {
		return nil, fmt.Errorf("bad slot count")
	}
	slots := make([]pageSlot, n)
	off := uint64(4 + 12*n)
	for i := range slots {
		d := []byte(img[4+12*i : 4+12*(i+1)])
		end := uint64(binary.LittleEndian.Uint32(d[8:]))
		if end <= off || end > uint64(len(img)) {
			return nil, fmt.Errorf("bad row extent")
		}
		slots[i] = pageSlot{rowID: binary.LittleEndian.Uint64(d), enc: img[off:end]}
		off = end
	}
	if off != uint64(len(img)) {
		return nil, fmt.Errorf("bytes after the last row")
	}
	return slots, nil
}

// decodeAll walks an image and decodes every row.
func decodeAll(img string) ([]rowSlot, error) {
	slots, err := walkPage(img)
	if err != nil {
		return nil, err
	}
	return decodeSlots(slots)
}

// refDecodeRow is a row-at-a-time decoder — one allocation per row and per
// text value, over bytes, with the standard library's varints — written apart
// from page.go as the reference its decoder is checked against.
func refDecodeRow(buf []byte) (Row, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("bad row arity")
	}
	buf = buf[sz:]
	r := make(Row, n)
	for i := range r {
		if len(buf) == 0 {
			return nil, nil, fmt.Errorf("truncated row")
		}
		typ := Type(buf[0])
		buf = buf[1:]
		switch typ {
		case TypeNull:
			r[i] = Null
		case TypeInt:
			v, sz := binary.Varint(buf)
			if sz <= 0 {
				return nil, nil, fmt.Errorf("bad int")
			}
			buf = buf[sz:]
			r[i] = NewInt(v)
		case TypeFloat:
			b, sz := binary.Uvarint(buf)
			if sz <= 0 {
				return nil, nil, fmt.Errorf("bad float")
			}
			buf = buf[sz:]
			r[i] = NewFloat(math.Float64frombits(b))
		case TypeText:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf)-sz) < l {
				return nil, nil, fmt.Errorf("bad string")
			}
			buf = buf[sz:]
			r[i] = NewText(string(buf[:l]))
			buf = buf[l:]
		case TypeBool:
			if len(buf) == 0 {
				return nil, nil, fmt.Errorf("bad bool")
			}
			r[i] = NewBool(buf[0] != 0)
			buf = buf[1:]
		default:
			return nil, nil, fmt.Errorf("unknown type %d", typ)
		}
	}
	return r, buf, nil
}

// refDecodePage decodes a page image with refDecodeRow: a slot's row is the
// bytes from the previous slot's end offset to its own, all of them.
func refDecodePage(buf []byte) ([]rowSlot, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("no slot count")
	}
	n := uint64(binary.LittleEndian.Uint32(buf))
	off := 4 + 12*n
	if off > uint64(len(buf)) {
		return nil, fmt.Errorf("directory past the end")
	}
	slots := make([]rowSlot, 0, n)
	for d := uint64(4); d < 4+12*n; d += 12 {
		end := uint64(binary.LittleEndian.Uint32(buf[d+8:]))
		if end < off || end > uint64(len(buf)) {
			return nil, fmt.Errorf("bad end offset")
		}
		row, rest, err := refDecodeRow(buf[off:end])
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("row shorter than its extent")
		}
		slots = append(slots, rowSlot{binary.LittleEndian.Uint64(buf[d:]), row})
		off = end
	}
	if off != uint64(len(buf)) {
		return nil, fmt.Errorf("trailing bytes")
	}
	return slots, nil
}

// randomRow draws a row of up to maxCols values of every type.
func randomRow(r *rand.Rand, maxCols int) Row {
	row := make(Row, r.Intn(maxCols+1))
	for i := range row {
		switch r.Intn(5) {
		case 0:
			row[i] = Null
		case 1:
			row[i] = NewInt(r.Int63() - r.Int63())
		case 2:
			row[i] = NewFloat(r.NormFloat64())
		case 3:
			b := make([]byte, r.Intn(20))
			r.Read(b)
			row[i] = NewText(string(b))
		default:
			row[i] = NewBool(r.Intn(2) == 0)
		}
	}
	return row
}

func sameValue(v, w Value) bool {
	return v.Typ == w.Typ && v.Int == w.Int && v.Str == w.Str && v.Bool == w.Bool &&
		math.Float64bits(v.Float) == math.Float64bits(w.Float)
}

// sameSlots reports whether two pages hold the same rows under the same IDs,
// comparing values exactly (type included; NaN payloads by bit pattern).
func sameSlots(a, b []rowSlot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].rowID != b[i].rowID || len(a[i].row) != len(b[i].row) {
			return false
		}
		for c, v := range a[i].row {
			if !sameValue(v, b[i].row[c]) {
				return false
			}
		}
	}
	return true
}

// checkImage holds every way of reading an image against the references: the
// directory walk yields exactly refMapPage's row IDs and extents, or both
// reject the image; and all reads fail, or all succeed and agree with
// refDecodePage — every row into one slab, one column at a time — and the
// page encodes back to an image that reads the same, whether its slots are
// the image's bytes or each row encoded anew. It returns the decoded slots,
// or nil for an image that is rejected.
func checkImage(t *testing.T, data []byte) []rowSlot {
	t.Helper()
	img := string(data)
	walked, werr := walkPage(img)
	mapped, merr := refMapPage(img)
	if (werr == nil) != (merr == nil) || !reflect.DeepEqual(walked, mapped) {
		t.Fatalf("directory walk %v, %v; reference %v, %v", walked, werr, mapped, merr)
	}
	got, err := decodeAll(img)
	want, refErr := refDecodePage(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decode err = %v, reference err = %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	if !sameSlots(got, want) {
		t.Fatalf("page decoder disagrees with the reference:\n got %v\nwant %v", got, want)
	}
	// Appending to a row decoded into a slab must not reach into its
	// neighbour's values.
	for i := range got {
		_ = append(got[i].row, NewText("overflow"))
	}
	if !sameSlots(got, want) {
		t.Fatal("appending to a decoded row changed a neighbour")
	}
	slots := walked
	for i := range slots {
		for c, v := range want[i].row {
			lead := make(Row, c+1)
			if err := decodeLeading(slots[i].enc, lead); err != nil || !sameValue(lead[c], v) {
				t.Fatalf("slot %d through column %d: %v, %v; want %v", i, c, lead[c], err, v)
			}
		}
		if err := decodeLeading(slots[i].enc, make(Row, len(want[i].row)+1)); err == nil {
			t.Fatalf("slot %d: decoded a column past the row's last", i)
		}
	}
	for _, pg := range []*residentPage{{slots: slots}, {slots: stored(got...)}} {
		again, err := decodeAll(pg.encode())
		if err != nil || !sameSlots(again, want) {
			t.Fatalf("re-encoded page does not round-trip: %v", err)
		}
	}
	return got
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Null},
		{NewInt(0), NewInt(-1), NewInt(1 << 40), NewInt(math.MinInt64), NewInt(math.MaxInt64)},
		{NewFloat(3.14159), NewFloat(-0.5)},
		{NewText(""), NewText("hello"), NewText("with 'quotes' and \x00 bytes")},
		{NewBool(true), NewBool(false)},
		{Null, NewInt(7), NewFloat(2.5), NewText("mix"), NewBool(true)},
	}
	for _, r := range rows {
		enc := encodeRowString(r)
		if enc != string(EncodeRow(nil, r)) {
			t.Errorf("encodeRowString(%v) differs from EncodeRow", r)
		}
		dec, err := DecodeRow(enc, nil)
		if err != nil {
			t.Fatalf("decode %v: %v", r, err)
		}
		if !sameSlots([]rowSlot{{row: dec}}, []rowSlot{{row: r}}) {
			t.Errorf("round trip %v -> %v", r, dec)
		}
		if len(r) == 0 {
			continue
		}
		// A buffer with room takes the row in place; one without is left alone.
		room, short := make(Row, len(r)), make(Row, len(r)-1)
		if in, _ := DecodeRow(enc, room[:0]); &in[0] != &room[0] {
			t.Errorf("%v: not decoded into a buffer with room for it", r)
		}
		if in, _ := DecodeRow(enc, short[:0]); len(short) > 0 && &in[0] == &short[0] {
			t.Errorf("%v: decoded into a buffer too short for it", r)
		}
	}
}

// TestPageCodecProperty checks the page codec against the row-at-a-time
// reference on random pages — uniform arity as a table's pages are, zero
// arity, and mixed arity — through every read path (see checkImage), and
// that the size function agrees with the encoder and the image is exactly
// header, directory and rows.
func TestPageCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		slots := make([]rowSlot, rng.Intn(pageCapacity+1))
		width := rng.Intn(8)
		if iter%10 == 0 {
			width = 0
		}
		size := pageHeaderSize + len(slots)*dirEntrySize
		for i := range slots {
			row := randomRow(rng, 8)
			if iter%2 == 0 { // uniform arity
				for len(row) != width {
					row = randomRow(rng, 8)
				}
			}
			slots[i] = rowSlot{rng.Uint64(), row}
			size += len(EncodeRow(nil, row))
		}
		img := encodePage(slots...)
		if len(img) != size {
			t.Fatalf("iter %d: image is %d bytes, want %d", iter, len(img), size)
		}
		if got := checkImage(t, []byte(img)); got == nil || !sameSlots(got, slots) {
			t.Fatalf("iter %d: page does not decode to what was encoded: %v", iter, got)
		}
	}
}

// wideRow is a row of cols values, ints and texts alternating.
func wideRow(id, cols int) Row {
	row := make(Row, cols)
	for c := range row {
		if c%2 == 0 {
			row[c] = NewInt(int64(id*100 + c))
		} else {
			row[c] = NewText(fmt.Sprintf("text value %d of row %d", c, id))
		}
	}
	return row
}

// fullPage returns a page-full of rows of cols columns with row IDs 1..64.
func fullPage(cols int) []rowSlot {
	slots := make([]rowSlot, pageCapacity)
	for i := range slots {
		slots[i] = rowSlot{uint64(i + 1), wideRow(i, cols)}
	}
	return slots
}

// TestPoolMissAllocs pins what a miss costs: a clean miss into a full pool
// takes the page's image as it is and reuses the evicted page's entry, so it
// allocates nothing, whatever the rows hold — a 22-column page costs what a
// 2-column page does — and decodes nothing; a page's first edit allocates its
// slot array and nothing else. The point read that caused a miss then decodes
// its one row, as every read of it does.
func TestPoolMissAllocs(t *testing.T) {
	for _, cols := range []int{2, 22} {
		p := NewBufferPool(1, 0)
		pages := []*sealedPage{sealedWith(fullPage(cols)...), sealedWith(fullPage(cols)...)}
		keys := []PageKey{{Table: 1, Page: 0}, {Table: 2, Page: 0}}
		if _, err := p.Get(keys[1], pages[1]); err != nil { // the pool is full
			t.Fatal(err)
		}
		const runs = 50
		allocs := testing.AllocsPerRun(runs, func() {
			for i := range pages { // each Get evicts the other page
				if _, err := p.Get(keys[i], pages[i]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if st := p.Stats(); allocs != 0 || st.Hits != 0 || st.Evictions != 2*(runs+1) || st.RowsDecoded != 0 {
			t.Errorf("%d columns: a clean miss into a full pool allocates %v times (stats %+v), want 0, every Get a miss that evicts", cols, allocs, st)
		}

		edited := make([]*sealedPage, runs+1)
		p = NewBufferPool(len(edited), 0)
		for i := range edited {
			edited[i] = sealedWith(fullPage(cols)...)
			if _, err := p.Get(PageKey{Table: 1, Page: uint32(i)}, edited[i]); err != nil {
				t.Fatal(err)
			}
		}
		enc, next := encodeRowString(wideRow(99, cols)), 0
		allocs = testing.AllocsPerRun(runs, func() {
			err := p.Update(PageKey{Table: 1, Page: uint32(next)}, edited[next], func(pg *residentPage) {
				pg.slots[0].enc = enc
			})
			if err != nil {
				t.Fatal(err)
			}
			next++
		})
		if allocs != 1 {
			t.Errorf("%d columns: a page's first edit allocates %v times, want 1 (its slot array)", cols, allocs)
		}
	}

	cfg := DefaultConfig()
	cfg.PoolPages = 1
	e := NewEngine(cfg)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	fillPages(t, e, "app", "a", 3*pageCapacity)
	mustExec(t, e, "SELECT v FROM a WHERE id = 150") // page 2 takes the pool's one slot
	before := e.Stats().Pool
	if res := mustExec(t, e, "SELECT s FROM a WHERE id = 5"); len(res.Rows) != 1 || res.Rows[0][0].Str != "row 5" {
		t.Fatalf("row 5 = %v", res.Rows)
	}
	after := e.Stats().Pool
	if after.Misses-before.Misses != 1 || after.RowsDecoded-before.RowsDecoded != 1 {
		t.Errorf("a cold point read: %d misses, %d rows decoded; want 1 and 1", after.Misses-before.Misses, after.RowsDecoded-before.RowsDecoded)
	}
	mustExec(t, e, "SELECT s FROM a WHERE id = 5")
	again := e.Stats().Pool
	if again.Misses != after.Misses || again.RowsDecoded != after.RowsDecoded+1 {
		t.Errorf("the same read again: stats %+v after %+v, want a hit that decodes the row again", again, after)
	}
	mustExec(t, e, "SELECT COUNT(*) FROM a WHERE v >= 0") // a scan decodes every row once
	if got := e.Stats().Pool.RowsDecoded - again.RowsDecoded; got != 3*pageCapacity {
		t.Errorf("a scan decoded %d rows, want %d", got, 3*pageCapacity)
	}
}

// TestPageCodecCorruption cuts a page image short at every length: none may
// decode.
func TestPageCodecCorruption(t *testing.T) {
	img := encodePage(
		rowSlot{1, Row{NewText("hello"), NewInt(-300)}},
		rowSlot{2, Row{NewBool(true), NewFloat(1.75), Null}},
	)
	if checkImage(t, []byte(img)) == nil {
		t.Fatal("the whole image does not decode")
	}
	for cut := 0; cut < len(img); cut++ {
		if checkImage(t, []byte(img[:cut])) != nil {
			t.Errorf("page truncated at %d decoded without error", cut)
		}
	}
}

// FuzzDecodePage feeds arbitrary bytes to the page codec: every input is
// either rejected or reads — row by row, column by column — as the
// row-at-a-time reference reads it, and re-encodes to an image that reads the
// same (see checkImage); never a panic, an over-read, or an allocation sized
// by a count or length the input only claims. The committed corpus
// (testdata/fuzz/FuzzDecodePage) holds arbitrary bytes — the previous format's
// malformed pages — and, as dir-*, directories that point past the end, run
// backwards, stop short of the image, or give a row more or fewer bytes than
// its values take; it runs as a plain test, with seeds for a directory cut
// short and an extent that ends past the image.
func FuzzDecodePage(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		slots := make([]rowSlot, rng.Intn(5))
		for j := range slots {
			slots[j] = rowSlot{uint64(j), randomRow(rng, 5)}
		}
		img := []byte(encodePage(slots...))
		f.Add(img)
		f.Add(img[:len(img)/2])
	}
	img := []byte(encodePage(rowSlot{1, Row{NewInt(1)}}, rowSlot{2, Row{NewText("two")}}, rowSlot{3, Row{Null}}))
	f.Add(img[:pageHeaderSize+dirEntrySize+5]) // the directory cut inside its second entry
	past := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(past[pageHeaderSize+2*dirEntrySize+8:], uint32(len(img)+1))
	f.Add(past) // the last extent ends one byte past the image
	f.Fuzz(func(t *testing.T, data []byte) { checkImage(t, data) })
}

// TestWriteBackCopiesCleanExtents changes one row of a full page and evicts
// it: write-back must carry the other 63 slots into the new image as the
// bytes they were, the changed slot as its new encoding, and a reload must
// see the change.
func TestWriteBackCopiesCleanExtents(t *testing.T) {
	const changed = 7
	p := NewBufferPool(1, 0)
	k := PageKey{Table: 1, Page: 0}
	page := sealedWith(fullPage(5)...)
	was, err := walkPage(page.imageBytes())
	if err != nil {
		t.Fatal(err)
	}
	newRow := Row{NewText("a row of another size"), Null}
	if err := p.Update(k, page, func(pg *residentPage) {
		pg.slots[changed] = pageSlot{rowID: pg.slots[changed].rowID, enc: encodeRowString(newRow)}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(PageKey{Table: 2, Page: 0}, sealedWith()); err != nil { // takes the pool's one slot
		t.Fatal(err)
	}
	if st := p.Stats(); st.Writebacks != 1 || st.Evictions != 1 || st.RowsDecoded != 0 {
		t.Fatalf("stats = %+v, want the changed page evicted and written back, no row decoded", st)
	}
	now, err := walkPage(page.imageBytes())
	if err != nil || len(now) != len(was) {
		t.Fatalf("new image: %d slots, %v", len(now), err)
	}
	for i := range now {
		want := was[i]
		if i == changed {
			want.enc = encodeRowString(newRow)
		}
		if now[i] != want {
			t.Errorf("slot %d: %q, want %q", i, now[i].enc, want.enc)
		}
	}
	pg, err := p.Get(k, page)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeSlots([]pageSlot{pg.slot(changed)}); err != nil || !sameSlots(got, []rowSlot{{changed + 1, newRow}}) {
		t.Fatalf("changed row after reload = %v, %v", got, err)
	}
}

func TestBufferPoolLRU(t *testing.T) {
	p := NewBufferPool(2, 0)
	page := func(id int) *sealedPage {
		return sealedWith(rowSlot{uint64(id), Row{NewInt(int64(id))}})
	}
	k := func(i int) PageKey { return PageKey{Table: 1, Page: uint32(i)} }

	for _, id := range []int{
		1,
		2,
		1, // hit, refreshes 1
		3, // evicts 2
		2, // miss again
	} {
		if _, err := p.Get(k(id), page(id)); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Hits != 1 {
		t.Errorf("hits = %d, want 1", s.Hits)
	}
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4", s.Misses)
	}
	if s.Evictions < 1 {
		t.Errorf("evictions = %d", s.Evictions)
	}
	if s.Writebacks != 0 {
		t.Errorf("writebacks = %d, want 0: no page was changed", s.Writebacks)
	}
	if p.Len() != 2 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestBufferPoolDisabled(t *testing.T) {
	p := NewBufferPool(0, 0)
	page := sealedWith(rowSlot{1, Row{NewInt(1)}})
	k := PageKey{Table: 1, Page: 0}
	for i := 0; i < 3; i++ {
		if _, err := p.Get(k, page); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Hits != 0 || s.Misses != 3 {
		t.Errorf("stats = %+v", s)
	}
	// Nothing holds an edited image, so it is written through at once.
	err := p.Update(k, page, func(pg *residentPage) {
		pg.slots[0] = stored(rowSlot{1, Row{NewInt(2)}})[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeAll(page.imageBytes())
	if err != nil || len(got) != 1 || got[0].row[0].Int != 2 {
		t.Fatalf("after update: %v, %v", got, err)
	}
	if s := p.Stats(); s.Writebacks != 1 || p.Len() != 0 {
		t.Errorf("stats = %+v, len = %d", s, p.Len())
	}
}

// TestBufferPoolWriteBack walks one page through a residency: born dirty,
// edited in place without an encode, flushed on demand, and written back
// exactly once when evicted dirty.
func TestBufferPoolWriteBack(t *testing.T) {
	p := NewBufferPool(1, 0)
	k := PageKey{Table: 1, Page: 0}
	page := &sealedPage{}
	p.Put(k, page, stored(rowSlot{5, Row{NewInt(5)}}))
	got, err := p.Get(k, page)
	if err != nil || got.len() != 1 || got.slot(0).rowID != 5 {
		t.Fatalf("got %v, %v", got, err)
	}
	if page.imageBytes() != "" || p.Stats().Writebacks != 0 {
		t.Fatal("a resident page was encoded")
	}
	setTo := func(v int64) {
		t.Helper()
		if err := p.Update(k, page, func(pg *residentPage) {
			pg.slots[0] = stored(rowSlot{5, Row{NewInt(v)}})[0]
		}); err != nil {
			t.Fatal(err)
		}
	}
	imageValue := func() int64 {
		t.Helper()
		dec, err := decodeAll(page.imageBytes())
		if err != nil || len(dec) != 1 {
			t.Fatalf("image: %v, %v", dec, err)
		}
		return dec[0].row[0].Int
	}
	setTo(6)
	setTo(7)
	if page.imageBytes() != "" {
		t.Fatal("an update encoded the page")
	}
	p.Flush(k)
	if v := imageValue(); v != 7 || p.Stats().Writebacks != 1 || p.Len() != 1 {
		t.Fatalf("after flush: image %d, stats %+v, len %d", v, p.Stats(), p.Len())
	}
	p.Flush(k) // clean: nothing to do
	if p.Stats().Writebacks != 1 {
		t.Fatal("flushing a clean page wrote it back")
	}
	setTo(8)
	// Another page takes the pool's only slot.
	if _, err := p.Get(PageKey{Table: 2, Page: 0}, sealedWith()); err != nil {
		t.Fatal(err)
	}
	if v := imageValue(); v != 8 {
		t.Fatalf("evicted dirty page's image holds %d, want 8", v)
	}
	if s := p.Stats(); s.Writebacks != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The reload sees the written-back image; a clean eviction writes nothing.
	got, err = p.Get(k, page)
	if err != nil || imageValue() != 8 {
		t.Fatalf("reload: %v, %v", got, err)
	}
	if dec, err := decodeSlots([]pageSlot{got.slot(0)}); err != nil || got.len() != 1 || len(dec) != 1 || dec[0].row[0].Int != 8 {
		t.Fatalf("reloaded page: %v, %v", dec, err)
	}
	if s := p.Stats(); s.Writebacks != 2 || s.Evictions != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// Dropping the table discards its dirty pages: it left the catalog under
	// its X lock, so no statement reads them again.
	setTo(9)
	p.InvalidateTable(1)
	if v := imageValue(); v != 8 || p.Len() != 0 {
		t.Fatalf("after InvalidateTable: image %d, len %d", v, p.Len())
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", []Column{{Name: "a", Typ: TypeInt}}); err == nil {
		t.Error("empty table name accepted")
	}
	if _, err := NewSchema("t", nil); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a", Typ: TypeInt}, {Name: "A", Typ: TypeInt}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("t", []Column{
		{Name: "a", Typ: TypeInt, PrimaryKey: true},
		{Name: "b", Typ: TypeInt, PrimaryKey: true},
	}); err == nil {
		t.Error("two primary keys accepted")
	}
}

// TestSchemaDDLRoundTrip logs a CREATE TABLE the way the WAL does, as the
// text it ran as, and checks that a recovered engine's schema keeps every
// column's type and flags.
func TestSchemaDDLRoundTrip(t *testing.T) {
	e, s := newWALEngine(t)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	crashExec(t, e, "app", "CREATE TABLE item (id INT PRIMARY KEY NOT NULL, title TEXT NOT NULL, cost FLOAT, sku TEXT UNIQUE)")
	got, _ := recoverEngine(t, s)
	want, err := tableOf(e, "app", "item")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := tableOf(got, "app", "item")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tbl.schema.Cols, want.schema.Cols) {
		t.Fatalf("recovered columns %+v, want %+v", tbl.schema.Cols, want.schema.Cols)
	}
	if c := tbl.schema.Cols; !c[0].PrimaryKey || !c[1].NotNull || !c[3].Unique {
		t.Errorf("%+v", c)
	}
}

// dumpAll images every table of app in one DumpTables call.
func dumpAll(t *testing.T, e *Engine) []TableDump {
	t.Helper()
	var dumps []TableDump
	err := e.DumpTables("app", e.Tables("app"), func(ds []TableDump) error {
		dumps = ds
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dumps
}

// encodeRows spells rows as a TableDump carries them: their stored encodings.
func encodeRows(rows ...Row) []string {
	encs := make([]string, len(rows))
	for i, r := range rows {
		encs[i] = encodeRowString(r)
	}
	return encs
}

// dumpRows decodes the rows a TableDump carries.
func dumpRows(t *testing.T, d TableDump) []Row {
	t.Helper()
	rows := make([]Row, len(d.Rows))
	for i, enc := range d.Rows {
		r, err := DecodeRow(enc, nil)
		if err != nil {
			t.Fatalf("dumped row %d: %v", i, err)
		}
		rows[i] = r
	}
	return rows
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "CREATE TABLE b (id INT PRIMARY KEY, n FLOAT)")
	mustExec(t, e, "CREATE INDEX idx_v ON a (v)")
	for i := 0; i < 200; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO a VALUES (%d, 'v%d')", i, i%10))
		mustExec(t, e, fmt.Sprintf("INSERT INTO b VALUES (%d, %d.5)", i, i))
	}

	dumps := dumpAll(t, e)
	if len(dumps) != 2 || dumps[0].Schema.Table != "a" || dumps[1].Schema.Table != "b" {
		t.Fatalf("dumps = %d tables, want a then b", len(dumps))
	}

	e2 := NewEngine(DefaultConfig())
	if err := e2.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	for _, d := range dumps {
		if err := e2.RestoreTable("app", d); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e2.Exec("app", "SELECT COUNT(*) FROM a WHERE v = 'v3'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 20 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	res, err = e2.Exec("app", "SELECT SUM(n) FROM b")
	if err != nil {
		t.Fatal(err)
	}
	want := float64(200*199)/2 + 200*0.5
	if res.Rows[0][0].Float != want {
		t.Errorf("sum = %v, want %v", res.Rows[0][0], want)
	}
}

// TestDumpTablesHoldsEveryLock checks the database-granularity use of
// DumpTables: the callback gets every named table's image at once, and
// while it runs writes to every named table block — the last one's lock is
// held too.
func TestDumpTablesHoldsEveryLock(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY)")
	mustExec(t, e, "CREATE TABLE b (id INT PRIMARY KEY)")

	inDump := make(chan struct{})
	release := make(chan struct{})
	dumped := make(chan error, 1)
	go func() {
		dumped <- e.DumpTables("app", []string{"a", "b"}, func(ds []TableDump) error {
			close(inDump)
			<-release
			if len(ds) != 2 || ds[0].Schema.Table != "a" || ds[1].Schema.Table != "b" {
				return fmt.Errorf("images = %d, want a then b", len(ds))
			}
			return nil
		})
	}()
	<-inDump
	wrote := make(chan error, 1)
	go func() {
		_, err := e.Exec("app", "INSERT INTO b VALUES (2)")
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("write to b did not block while a was being dumped (err=%v)", err)
	case <-timeAfter50ms():
	}
	close(release)
	if err := <-wrote; err != nil {
		t.Fatalf("write failed after dump: %v", err)
	}
	if err := <-dumped; err != nil {
		t.Fatalf("dump: %v", err)
	}
	if err := e.DumpTables("app", []string{"a", "nope"}, func([]TableDump) error { return nil }); !errors.Is(err, ErrNoTable) {
		t.Fatalf("dump of a missing table: err = %v, want ErrNoTable", err)
	}
	if held := e.Stats().LocksHeld; held != 0 {
		t.Fatalf("locks held after dumps = %d", held)
	}
}

// TestDumpConsistentUnderWrites dumps a table while transfer transactions
// run against it: the image restored elsewhere must hold every account and
// the invariant total (the read lock never tears a transfer).
func TestDumpConsistentUnderWrites(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	const n = 16
	for i := 0; i < n; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				tx, err := e.Begin("app")
				if err != nil {
					continue
				}
				_, e1 := tx.Exec("UPDATE acct SET bal = bal - 1 WHERE id = ?", NewInt(int64(i%n)))
				var e2 error
				if e1 == nil {
					_, e2 = tx.Exec("UPDATE acct SET bal = bal + 1 WHERE id = ?", NewInt(int64((i*3+1)%n)))
				}
				if e1 != nil || e2 != nil {
					_ = tx.Rollback()
					continue
				}
				_ = tx.Commit()
			}
		}(w * 5)
	}
	dumps := dumpAll(t, e)
	close(stop)
	wg.Wait()

	e2 := newTestDB(t)
	if err := e2.RestoreTable("app", dumps[0]); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e2, "SELECT SUM(bal), COUNT(*) FROM acct")
	if res.Rows[0][1].Int != n {
		t.Fatalf("restored rows = %v", res.Rows[0][1])
	}
	if res.Rows[0][0].Int != n*100 {
		t.Errorf("restored total = %v, want %d (dump tore a transfer)", res.Rows[0][0], n*100)
	}
}

// TestRestoreReplacesExistingTable checks RestoreTable's replace semantics:
// the image supersedes the table's rows, schema and indexes, and cached
// plans follow.
func TestRestoreReplacesExistingTable(t *testing.T) {
	src := newTestDB(t)
	mustExec(t, src, "CREATE TABLE a (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, src, "CREATE INDEX idx_v ON a (v)")
	mustExec(t, src, "INSERT INTO a VALUES (7, 'new')")

	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY)")
	for i := 0; i < 300; i++ { // several sealed pages of the old incarnation
		mustExec(t, e, fmt.Sprintf("INSERT INTO a VALUES (%d)", i))
	}
	mustExec(t, e, "SELECT id FROM a WHERE id = 7") // caches a plan on the old schema
	if err := e.RestoreTable("app", dumpAll(t, src)[0]); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, "SELECT id, v FROM a")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 7 || res.Rows[0][1].Str != "new" {
		t.Fatalf("rows after replace = %v", res.Rows)
	}
	if res := mustExec(t, e, "SELECT id FROM a WHERE v = 'new'"); len(res.Rows) != 1 {
		t.Fatalf("restored index lookup = %v", res.Rows)
	}
	mustExec(t, e, "INSERT INTO a VALUES (8, 'later')")
}

func TestDatabaseByteSizeGrows(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (id INT PRIMARY KEY, v TEXT)")
	before := e.DatabaseByteSize("app")
	for i := 0; i < 100; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO a VALUES (%d, 'some text payload %d')", i, i))
	}
	after := e.DatabaseByteSize("app")
	if after <= before {
		t.Errorf("byte size did not grow: %d -> %d", before, after)
	}
	mustExec(t, e, "DELETE FROM a WHERE id < 50")
	if shrunk := e.DatabaseByteSize("app"); shrunk >= after {
		t.Errorf("byte size did not shrink after delete: %d -> %d", after, shrunk)
	}
}

func timeAfter50ms() <-chan time.Time { return time.After(50 * time.Millisecond) }

// indexBytesPerRowCeiling is what a loaded row may keep on the heap in a
// table with an INT primary key and one TEXT index: the row's encoding in its
// page slot, its 8-byte row-directory entry, one hash-map entry per index
// with its key string, and the index's one-element rowID list — 217 B at
// 20 000 rows. A rowID → slot hash map in place of the directory made it
// 254 B, a stored row kept decoded (48 B a value, its TEXT a string of its
// own) 342 B, and a second map per index shadowing every key with its value
// 583 B; like the allocation ceilings this does not depend on the box.
const indexBytesPerRowCeiling = 240

// TestIndexBytesPerRow is the machine-independent footprint gate: an index
// holds each key once. The redo log the inserts leave is not the table's:
// both measurements are taken with a fresh, empty log attached, and the
// log's share is reported beside the gated number.
func TestIndexBytesPerRow(t *testing.T) {
	const rows = 20000
	e := newTestDB(t)
	emptyLog := func() { e.AttachWAL(wal.New(wal.NewMemStore(), wal.Config{}, nil)) }
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
	mustExec(t, e, "CREATE INDEX t_name ON t (name)")
	emptyLog()
	before := heap()
	for i := 0; i < rows; i++ {
		mustExec(t, e, "INSERT INTO t VALUES (?, ?)", NewInt(int64(i)), NewText(fmt.Sprintf("name-%05d", i)))
	}
	logged := heap()
	emptyLog()
	after := heap()
	perRow := float64(after-before) / rows
	runtime.KeepAlive(e)
	t.Logf("%.0f heap bytes per row, and %.0f in the log", perRow, float64(logged-after)/rows)
	if perRow > indexBytesPerRowCeiling {
		t.Fatalf("%.0f heap bytes per loaded row, ceiling %d", perRow, indexBytesPerRowCeiling)
	}
}

// heap returns the bytes the heap holds after a collection.
func heap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRestoreBytesPerRow holds a restored table to the footprint of an
// inserted one (TestIndexBytesPerRow's table and ceiling): a restore cuts an
// index's keys from one string per column and its row lists from one array,
// which stay whole while any of their keys or lists lives, and must not keep
// more than a key string and a list per row would. The image the restore
// logs is dropped with the log before measuring.
func TestRestoreBytesPerRow(t *testing.T) {
	const rows = 20000
	e := newTestDB(t)
	before := heap()
	d := TableDump{Rows: make([]string, rows), Indexes: []IndexDef{{Name: "t_name", Col: "name"}}}
	var err error
	if d.Schema, err = NewSchema("t", []Column{{Name: "id", Typ: TypeInt, PrimaryKey: true}, {Name: "name", Typ: TypeText}}); err != nil {
		t.Fatal(err)
	}
	for i := range d.Rows {
		d.Rows[i] = encodeRowString(Row{NewInt(int64(i)), NewText(fmt.Sprintf("name-%05d", i))})
	}
	if err := e.RestoreTable("app", d); err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(wal.New(wal.NewMemStore(), wal.Config{}, nil))
	perRow := float64(heap()-before) / rows
	runtime.KeepAlive(e)
	t.Logf("%.0f heap bytes per restored row", perRow)
	if perRow > indexBytesPerRowCeiling {
		t.Fatalf("%.0f heap bytes per restored row, ceiling %d", perRow, indexBytesPerRowCeiling)
	}
}

// storedRowObjectsCeiling is how many heap objects a loaded row may keep in a
// table with an INT primary key and one TEXT index, every page resident and
// a tenth of the rows updated: its slot's encoding, its primary-key and index
// key strings and its index rowID list, the small ones sharing tiny-allocator
// blocks, and its share of the maps and slot arrays — 3.6 at 20 000 rows. A
// stored row kept decoded, a []Value pointing at strings of their own, made
// it 5.6; like the allocation ceilings this does not depend on the box.
const storedRowObjectsCeiling = 4.5

// TestStoredRowObjects is the machine-independent half of what a tenant
// keeps resident: a stored row is one object, its encoding, not a decoded
// row and the strings its values point at.
func TestStoredRowObjects(t *testing.T) {
	const rows, updated = 20000, 2000
	objects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	cfg := DefaultConfig()
	cfg.PoolPages = 2 * rows / pageCapacity // every page stays resident
	e := NewEngine(cfg)
	if err := e.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, addr TEXT)")
	mustExec(t, e, "CREATE INDEX t_name ON t (name)")
	before := objects()
	for i := 0; i < rows; i++ {
		mustExec(t, e, "INSERT INTO t VALUES (?, ?, ?)", NewInt(int64(i)), NewText(fmt.Sprintf("name-%05d", i)), NewText(fmt.Sprintf("%d Long Street, Some Town", i)))
	}
	for i := 0; i < updated; i++ {
		id := i * (rows / updated)
		mustExec(t, e, "UPDATE t SET name = ? WHERE id = ?", NewText(fmt.Sprintf("renamed-%05d", id)), NewInt(int64(id)))
	}
	perRow := float64(objects()-before) / rows
	runtime.KeepAlive(e)
	t.Logf("%.2f heap objects per row", perRow)
	if perRow > storedRowObjectsCeiling {
		t.Fatalf("%.2f heap objects per stored row, ceiling %.1f", perRow, storedRowObjectsCeiling)
	}
}

// TestPoolCountersPinned replays one seeded single-goroutine sequence of
// Gets, edits, Puts, Flushes and InvalidateTables over a three-stripe pool
// and holds the counters to the ones the list-based LRU pool this one
// replaced gave for the same sequence: the LRU order, and so every hit,
// miss, eviction and write-back, is the same.
func TestPoolCountersPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewBufferPool(3*poolStripeTarget, 0)
	pages := make(map[PageKey]*sealedPage)
	var keys []PageKey
	for tbl := uint32(1); tbl <= 3; tbl++ {
		for pg := uint32(0); pg < 60; pg++ {
			k := PageKey{Table: tbl, Page: pg}
			pages[k], keys = sealedWith(rowSlot{uint64(pg) + 1, Row{NewInt(int64(pg))}}), append(keys, k)
		}
	}
	next := uint32(4)
	enc := encodeRowString(Row{NewInt(-1)})
	for step := 0; step < 20000; step++ {
		// A skewed pick: low pages are hot.
		k := keys[int(float64(len(keys))*rng.Float64()*rng.Float64())]
		switch r := rng.Intn(1000); {
		case r < 600:
			if _, err := p.Get(k, pages[k]); err != nil {
				t.Fatal(err)
			}
		case r < 850:
			if err := p.Update(k, pages[k], func(pg *residentPage) { pg.slots[0].enc = enc }); err != nil {
				t.Fatal(err)
			}
		case r < 990:
			p.Flush(k)
		case r < 998:
			k := PageKey{Table: next, Page: uint32(step)}
			pages[k], keys = &sealedPage{}, append(keys, k)
			p.Put(k, pages[k], stored(rowSlot{1, Row{NewInt(1)}}))
		default:
			p.InvalidateTable(k.Table)
			for i, kk := range keys {
				if kk.Table == k.Table {
					keys[i] = PageKey{Table: next, Page: uint32(i)}
					pages[keys[i]] = &sealedPage{}
					p.Put(keys[i], pages[keys[i]], stored(rowSlot{1, Row{NewInt(2)}}))
				}
			}
			next++
		}
	}
	st := p.Stats()
	got := fmt.Sprintf("hits %d misses %d evictions %d writebacks %d len %d", st.Hits, st.Misses, st.Evictions, st.Writebacks, p.Len())
	if want := "hits 9565 misses 7305 evictions 9290 writebacks 6057 len 96"; got != want {
		t.Errorf("counters: %s\nwant      %s", got, want)
	}
}
