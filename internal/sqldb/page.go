package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Rows live on pages of up to pageCapacity rows. Outside the buffer pool a
// page is its image, an immutable string:
//
//	slot count   uint32
//	directory    one (row id uint64, end uint32) per slot
//	rows         one EncodeRow encoding per slot, back to back
//
// little-endian; end is the offset in the image just past the slot's row, so
// row i occupies [end of row i-1, end of row i) and the first row starts where
// the directory stops. The page format is this package's own business, but
// its row encoding is not: table images and redo records carry values in it
// too (walcodec.go).
//
// Inside the pool a page is its image until its first edit: a reader finds
// slot i's row ID and extent in the image's directory, which was checked once
// when the image was first mapped (sealedPage.mapped). An edit gives the page
// slots of its own, each its row's encoding — a substring of the image for a
// row the page was mapped with, the row's own EncodeRow string for one edited
// since. Nothing keeps a decoded row: a reader decodes the slots it needs into
// a buffer of its own. Bringing a page in parses no row and allocates
// nothing, and writing it back copies each slot's bytes. What a miss costs
// beyond that is Config.MissLatency, the modelled disk — which is what makes
// buffer-pool locality, and so the paper's read-routing options, visible in
// throughput.

// pageCapacity is the number of row slots per page.
const pageCapacity = 64

const (
	pageHeaderSize = 4  // slot count
	dirEntrySize   = 12 // row id, end offset
)

// sealedPage is a full page's home outside the buffer pool: its image. The
// pool is write-back, so the image is the page's contents only while the
// page is not resident and dirty; there is none until the page is first
// written back. Images are immutable and replaced whole, atomically: the pool
// writes an evicted page back under its own stripe mutex, possibly while some
// other table's latch is held, so storing an image must not need the owning
// table's latch.
type sealedPage struct {
	img atomic.Pointer[pageImage]
}

// pageImage is one image of a page and whether its directory has passed
// checkDirectory: an image is checked the first time it is mapped, and never
// again, since it never changes.
type pageImage struct {
	enc     string
	checked atomic.Bool
}

func (p *sealedPage) store(enc string) { p.img.Store(&pageImage{enc: enc}) }

// mapped returns the page's image with its directory checked, so that
// imageSlot may read it without checking anything. Concurrent first mappers
// may both run the check; it gives both the same verdict.
func (p *sealedPage) mapped() (string, error) {
	im := p.img.Load()
	if im == nil {
		return "", corrupt("page", "no image")
	}
	if !im.checked.Load() {
		if err := checkDirectory(im.enc); err != nil {
			return "", err
		}
		im.checked.Store(true)
	}
	return im.enc, nil
}

// EncodeRow appends a row's encoding to buf: the value count, then each
// value as its Type byte and a payload,
//
//	row   := n(uvarint) value*n
//	value := 0                               NULL
//	       | 1 zig-zag varint                INT
//	       | 2 uvarint of math.Float64bits   FLOAT
//	       | 3 len(uvarint) bytes            TEXT
//	       | 4 0|1                           BOOL
//
// It is the one value codec: page slots, table images, redo records and the
// wire protocol's parameters and result rows all carry values this way.
func EncodeRow(buf []byte, r Row) []byte {
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

// encodeRowString is EncodeRow as the string a slot keeps: one allocation,
// the string itself.
func encodeRowString(r Row) string {
	var buf [512]byte
	return string(EncodeRow(buf[:0], r))
}

// pageSlot is one occupied slot of a page, or of a table's open tail page.
// A resident page's slots are immutable: an edit replaces one whole, under the
// owning table's latch and the pool's stripe mutex together, so holding
// either is enough to read it.
type pageSlot struct {
	rowID uint64
	enc   string // the row's EncodeRow encoding
}

// residentPage is a page in the buffer pool: its checked image until its
// first edit (BufferPool.Update), its own slots from then on, or from the
// start for a page the pool was given as slots (BufferPool.Put). It is a
// value: what Get returns stays readable under the owning table's latch
// after the pool has reused the entry it came from.
type residentPage struct {
	img   string     // the checked image the page is read from; "" once it has slots
	slots []pageSlot // the page's own slots, when img is ""
}

// len returns the page's slot count.
func (pg residentPage) len() int {
	if pg.img == "" {
		return len(pg.slots)
	}
	return int(le32(pg.img, 0))
}

// slot returns slot i.
func (pg residentPage) slot(i int) pageSlot {
	if pg.img == "" {
		return pg.slots[i]
	}
	return imageSlot(pg.img, i)
}

// own gives a page that is read from its image a slot array of its own,
// each slot's string the image's bytes, so that an edit can replace a slot.
func (pg *residentPage) own() {
	if pg.img == "" {
		return
	}
	pg.slots = make([]pageSlot, pg.len())
	for i := range pg.slots {
		pg.slots[i] = imageSlot(pg.img, i)
	}
	pg.img = ""
}

// encode builds the image of a page with slots of its own in one exactly
// sized allocation: the directory, then each slot's bytes. It runs under the
// stripe mutex alone.
func (pg *residentPage) encode() string {
	end := pageHeaderSize + len(pg.slots)*dirEntrySize
	total := end
	for _, s := range pg.slots {
		total += len(s.enc)
	}
	var img strings.Builder
	img.Grow(total)
	var dir [dirEntrySize]byte
	binary.LittleEndian.PutUint32(dir[:], uint32(len(pg.slots)))
	img.Write(dir[:pageHeaderSize])
	for _, s := range pg.slots {
		end += len(s.enc)
		binary.LittleEndian.PutUint64(dir[:], s.rowID)
		binary.LittleEndian.PutUint32(dir[8:], uint32(end))
		img.Write(dir[:])
	}
	for _, s := range pg.slots {
		img.WriteString(s.enc)
	}
	return img.String()
}

// corrupt reports an encoding, what (a page or a row), that does not decode.
func corrupt(what, why string) error { return fmt.Errorf("sqldb: corrupt %s: %s", what, why) }

// checkDirectory checks an image's directory, parsing no row: it must fit
// the image, and the extents must be non-empty (a row is at least its arity
// byte), in order, inside the image, and end exactly where it ends.
func checkDirectory(img string) error {
	if len(img) < pageHeaderSize {
		return corrupt("page", "no slot count")
	}
	n := uint64(le32(img, 0))
	if n > uint64(len(img)-pageHeaderSize)/(dirEntrySize+1) {
		return corrupt("page", "bad slot count")
	}
	off := uint32(pageHeaderSize + n*dirEntrySize)
	for d := pageHeaderSize; d < pageHeaderSize+int(n)*dirEntrySize; d += dirEntrySize {
		end := le32(img, d+8)
		if end <= off || uint64(end) > uint64(len(img)) {
			return corrupt("page", "bad row extent")
		}
		off = end
	}
	if int(off) != len(img) {
		return corrupt("page", "bytes after the last row")
	}
	return nil
}

// imageSlot returns slot i of an image checkDirectory accepted: its row ID
// and the substring of the image its row occupies, read from the directory.
func imageSlot(img string, i int) pageSlot {
	d := pageHeaderSize + i*dirEntrySize
	start := uint32(pageHeaderSize + int(le32(img, 0))*dirEntrySize)
	if i > 0 {
		start = le32(img, d-4) // the previous row's end
	}
	return pageSlot{
		rowID: uint64(le32(img, d)) | uint64(le32(img, d+4))<<32,
		enc:   img[start:le32(img, d+8)],
	}
}

// rowArity reads the value count that starts a row encoding and the position
// of the first value. A value takes at least its tag byte, so a count the
// encoding cannot hold is rejected before anything is sized by it.
func rowArity(enc string) (arity, pos int, err error) {
	n, sz := uvarint(enc)
	if sz <= 0 || n > uint64(len(enc)-sz) {
		return 0, 0, corrupt("row", "bad arity")
	}
	return int(n), sz, nil
}

// DecodeRow decodes an EncodeRow encoding, which must fill enc exactly, into
// the front of dst's backing array, or into a fresh slice when dst has no
// room for it. Text values are substrings of enc: whoever keeps the row keeps
// the encoding, never more than the page image it was cut from. enc may come
// from an untrusted peer: a malformed encoding is an error, and no count in it
// sizes an allocation beyond what its bytes could hold.
func DecodeRow(enc string, dst []Value) (Row, error) {
	row, n, err := DecodeRowPrefix(enc, dst)
	if err == nil && n != len(enc) {
		return nil, corrupt("row", "bytes after the last value")
	}
	return row, err
}

// DecodeRowPrefix decodes the row encoding that starts enc, as DecodeRow
// does, and returns the number of bytes it took.
func DecodeRowPrefix(enc string, dst []Value) (Row, int, error) {
	n, pos, err := rowArity(enc)
	if err != nil {
		return nil, 0, err
	}
	if cap(dst) < n {
		dst = make([]Value, n)
	}
	row := Row(dst[:n])
	for c := range row {
		if pos, err = decodeValue(enc, pos, &row[c]); err != nil {
			return nil, 0, err
		}
	}
	return row, pos, nil
}

// decodeLeading decodes the first len(dst) values of a row encoding into dst
// in one pass, leaving the rest of the row unread.
func decodeLeading(enc string, dst []Value) error {
	n, pos, err := rowArity(enc)
	if err != nil {
		return err
	}
	if len(dst) > n {
		return corrupt("row", "too few values")
	}
	for c := range dst {
		if pos, err = decodeValue(enc, pos, &dst[c]); err != nil {
			return err
		}
	}
	return nil
}

// decodeValue decodes the value at enc[pos:] into v and returns the position
// after it.
func decodeValue(enc string, pos int, v *Value) (int, error) {
	if pos >= len(enc) {
		return 0, corrupt("row", "truncated")
	}
	typ := Type(enc[pos])
	pos++
	switch typ {
	case TypeNull:
		*v = Null
	case TypeInt:
		ux, sz := uvarint(enc[pos:])
		if sz <= 0 {
			return 0, corrupt("row", "bad int")
		}
		pos += sz
		x := int64(ux >> 1) // zig-zag, as binary.Varint
		if ux&1 != 0 {
			x = ^x
		}
		*v = NewInt(x)
	case TypeFloat:
		b, sz := uvarint(enc[pos:])
		if sz <= 0 {
			return 0, corrupt("row", "bad float")
		}
		pos += sz
		*v = NewFloat(math.Float64frombits(b))
	case TypeText:
		l, sz := uvarint(enc[pos:])
		if sz <= 0 || l > uint64(len(enc)-pos-sz) {
			return 0, corrupt("row", "bad string")
		}
		pos += sz
		*v = NewText(enc[pos : pos+int(l)])
		pos += int(l)
	case TypeBool:
		if pos >= len(enc) {
			return 0, corrupt("row", "bad bool")
		}
		*v = NewBool(enc[pos] != 0)
		pos++
	default:
		return 0, corrupt("row", fmt.Sprintf("unknown type %d", typ))
	}
	return pos, nil
}

// le32 reads a little-endian uint32 at s[i:].
func le32(s string, i int) uint32 {
	_ = s[i+3]
	return uint32(s[i]) | uint32(s[i+1])<<8 | uint32(s[i+2])<<16 | uint32(s[i+3])<<24
}

// uvarint is binary.Uvarint for a string: the value and the number of bytes
// it took, or 0 if s ends inside the value or the value overflows 64 bits.
func uvarint(s string) (uint64, int) {
	var x uint64
	for i := 0; i < len(s) && i < binary.MaxVarintLen64; i++ {
		b := s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, 0
			}
			return x | uint64(b)<<(7*i), i + 1
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	return 0, 0
}
