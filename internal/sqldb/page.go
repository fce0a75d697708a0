package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Rows are stored on disk-format pages: a compact binary encoding of up to
// pageCapacity (rowID, row) pairs. The buffer pool caches *decoded* pages;
// serving a read from an encoded page pays a real decode cost (plus an
// optional simulated disk latency), which is what makes buffer-pool locality
// — and therefore the paper's read-routing options — performance-visible.

// pageCapacity is the number of row slots per page.
const pageCapacity = 64

// sealedPage is a full page's home outside the buffer pool: its disk image.
// The pool is write-back, so the image is the page's contents only while the
// page is not resident and dirty; it is nil until the page is first written
// back. Images are immutable once published and replaced whole, atomically:
// the pool writes an evicted page back under its own stripe mutex, possibly
// while some other table's latch is held, so storing an image must not need
// the owning table's latch.
type sealedPage struct {
	enc atomic.Pointer[[]byte]
}

func (p *sealedPage) image() []byte {
	if b := p.enc.Load(); b != nil {
		return *b
	}
	return nil
}

func (p *sealedPage) store(enc []byte) { p.enc.Store(&enc) }

// encodeRow appends the binary encoding of a row to buf.
func encodeRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = append(buf, byte(v.Typ))
		switch v.Typ {
		case TypeNull:
		case TypeInt:
			buf = binary.AppendVarint(buf, v.Int)
		case TypeFloat:
			buf = binary.AppendUvarint(buf, math.Float64bits(v.Float))
		case TypeText:
			buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
			buf = append(buf, v.Str...)
		case TypeBool:
			if v.Bool {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// encodedRowSize is len(encodeRow(nil, r)) without building the encoding; the
// table's byte-size accounting calls it on every row change.
func encodedRowSize(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		n++ // type tag
		switch v.Typ {
		case TypeInt:
			ux := uint64(v.Int) << 1 // zig-zag, as binary.AppendVarint
			if v.Int < 0 {
				ux = ^ux
			}
			n += uvarintLen(ux)
		case TypeFloat:
			n += uvarintLen(math.Float64bits(v.Float))
		case TypeText:
			n += uvarintLen(uint64(len(v.Str))) + len(v.Str)
		case TypeBool:
			n++
		}
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// pageSlot is one occupied slot on a decoded page.
type pageSlot struct {
	rowID uint64
	row   Row
}

// encodePage serialises the occupied slots of a page.
func encodePage(slots []pageSlot) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(slots)))
	for _, s := range slots {
		buf = binary.AppendUvarint(buf, s.rowID)
		buf = encodeRow(buf, s.row)
	}
	return buf
}

func corruptPage(what string) error { return fmt.Errorf("sqldb: corrupt page: %s", what) }

// decodePage parses a page encoding back into slots, in a constant number of
// allocations whatever the page holds: the slot array, one copy of the page
// as a string that every text value is a substring of, and one []Value slab
// that the rows are cut from. Each row's capacity ends where the next row
// begins, so appending to a decoded row reallocates it instead of running
// into its neighbour. (A row of another arity than the first, which a table's
// pages never hold, only costs a further slab.) A reader that retains a
// decoded text value retains the page's string with it.
func decodePage(buf []byte) ([]pageSlot, error) {
	n, pos := binary.Uvarint(buf)
	// A slot takes at least two bytes (row id, arity) and a value at least one,
	// so counts the buffer cannot hold are rejected before anything is sized
	// by them.
	if pos <= 0 || n > uint64(len(buf)-pos)/2 {
		return nil, corruptPage("bad slot count")
	}
	str := string(buf)
	slots := make([]pageSlot, n)
	var slab []Value
	for i := range slots {
		id, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 {
			return nil, corruptPage("bad row id")
		}
		pos += sz
		arity, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 || arity > uint64(len(buf)-pos-sz) {
			return nil, corruptPage("bad row arity")
		}
		pos += sz
		width := int(arity)
		if width > len(slab) {
			slab = make([]Value, min(width*(len(slots)-i), len(buf)-pos))
		}
		row := Row(slab[:width:width])
		slab = slab[width:]
		for c := range row {
			if pos >= len(buf) {
				return nil, corruptPage("truncated row")
			}
			typ := Type(buf[pos])
			pos++
			switch typ {
			case TypeNull:
				row[c] = Null
			case TypeInt:
				v, sz := binary.Varint(buf[pos:])
				if sz <= 0 {
					return nil, corruptPage("bad int")
				}
				pos += sz
				row[c] = NewInt(v)
			case TypeFloat:
				b, sz := binary.Uvarint(buf[pos:])
				if sz <= 0 {
					return nil, corruptPage("bad float")
				}
				pos += sz
				row[c] = NewFloat(math.Float64frombits(b))
			case TypeText:
				l, sz := binary.Uvarint(buf[pos:])
				if sz <= 0 || l > uint64(len(buf)-pos-sz) {
					return nil, corruptPage("bad string")
				}
				pos += sz
				row[c] = NewText(str[pos : pos+int(l)])
				pos += int(l)
			case TypeBool:
				if pos >= len(buf) {
					return nil, corruptPage("bad bool")
				}
				row[c] = NewBool(buf[pos] != 0)
				pos++
			default:
				return nil, corruptPage(fmt.Sprintf("unknown type %d", typ))
			}
		}
		slots[i] = pageSlot{rowID: id, row: row}
	}
	return slots, nil
}
