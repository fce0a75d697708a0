package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"

	"sdp/internal/wal"
)

// Binary encoding of a table image — the one byte codec for TableDump —
// carried as the Data of a RecCheckpointTable or RecRestoreTable frame:
//
//	image  := table(string) ncols(uvarint) col* pk(uvarint+1)
//	          nidx(uvarint) idx* nrows(uvarint) row*
//	col    := name(string) type(uvarint) flags(uint8)   // 1 PK, 2 NOT NULL, 4 UNIQUE
//	idx    := name(string) col(string) unique(uint8)
//	row    := value*                                    // one per column
//	value  := type(uint8) payload
//
// Value payloads: NULL none, INT zigzag varint, FLOAT 8-byte IEEE bits,
// TEXT length-prefixed bytes, BOOL one byte.

// encodeTableImage serialises a table dump for an image frame.
func encodeTableImage(d TableDump) []byte {
	buf := wal.AppendString(nil, d.Schema.Table)
	buf = wal.AppendUvarint(buf, uint64(len(d.Schema.Cols)))
	for _, c := range d.Schema.Cols {
		buf = wal.AppendString(buf, c.Name)
		buf = wal.AppendUvarint(buf, uint64(c.Typ))
		var flags byte
		if c.PrimaryKey {
			flags |= 1
		}
		if c.NotNull {
			flags |= 2
		}
		if c.Unique {
			flags |= 4
		}
		buf = append(buf, flags)
	}
	buf = wal.AppendUvarint(buf, uint64(len(d.Indexes)))
	for _, idx := range d.Indexes {
		buf = wal.AppendString(buf, idx.Name)
		buf = wal.AppendString(buf, idx.Col)
		if idx.Unique {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = wal.AppendUvarint(buf, uint64(len(d.Rows)))
	for _, r := range d.Rows {
		for _, v := range r {
			buf = appendValue(buf, v)
		}
	}
	return buf
}

// decodeTableImage parses an image frame payload back into a table dump.
func decodeTableImage(data []byte) (TableDump, error) {
	var d TableDump
	table, rest, err := wal.TakeString(data)
	if err != nil {
		return d, err
	}
	// A column takes at least 3 bytes, an index 3, a row one per column.
	ncols, rest, err := takeCount(rest, 3)
	if err != nil {
		return d, err
	}
	cols := make([]Column, ncols)
	for i := range cols {
		if cols[i].Name, rest, err = wal.TakeString(rest); err != nil {
			return d, err
		}
		var typ uint64
		if typ, rest, err = wal.Uvarint(rest); err != nil {
			return d, err
		}
		cols[i].Typ = Type(typ)
		if len(rest) == 0 {
			return d, fmt.Errorf("sqldb: truncated checkpoint column flags")
		}
		flags := rest[0]
		rest = rest[1:]
		cols[i].PrimaryKey = flags&1 != 0
		cols[i].NotNull = flags&2 != 0
		cols[i].Unique = flags&4 != 0
	}
	if d.Schema, err = NewSchema(table, cols); err != nil {
		return d, err
	}
	nidx, rest, err := takeCount(rest, 3)
	if err != nil {
		return d, err
	}
	d.Indexes = make([]IndexDef, nidx)
	for i := range d.Indexes {
		if d.Indexes[i].Name, rest, err = wal.TakeString(rest); err != nil {
			return d, err
		}
		if d.Indexes[i].Col, rest, err = wal.TakeString(rest); err != nil {
			return d, err
		}
		if len(rest) == 0 {
			return d, fmt.Errorf("sqldb: truncated checkpoint index flags")
		}
		d.Indexes[i].Unique = rest[0] != 0
		rest = rest[1:]
	}
	nrows, rest, err := takeCount(rest, ncols)
	if err != nil {
		return d, err
	}
	d.Rows = make([]Row, nrows)
	for i := range d.Rows {
		row := make(Row, ncols)
		for j := range row {
			if row[j], rest, err = takeValue(rest); err != nil {
				return d, err
			}
		}
		d.Rows[i] = row
	}
	return d, nil
}

// takeCount reads an element count and rejects one the remaining bytes cannot
// hold at minSize bytes an element, so a damaged count fails here and never
// sizes an allocation.
func takeCount(buf []byte, minSize int) (int, []byte, error) {
	n, rest, err := wal.Uvarint(buf)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(rest)/minSize) {
		return 0, nil, fmt.Errorf("sqldb: checkpoint count %d exceeds the %d bytes left", n, len(rest))
	}
	return int(n), rest, nil
}

// appendValue serialises one value.
func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Typ))
	switch v.Typ {
	case TypeInt:
		buf = binary.AppendVarint(buf, v.Int)
	case TypeFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float))
	case TypeText:
		buf = wal.AppendString(buf, v.Str)
	case TypeBool:
		if v.Bool {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// takeValue parses one value, returning the remaining bytes.
func takeValue(buf []byte) (Value, []byte, error) {
	if len(buf) == 0 {
		return Null, nil, fmt.Errorf("sqldb: truncated checkpoint value")
	}
	typ := Type(buf[0])
	buf = buf[1:]
	switch typ {
	case TypeNull:
		return Null, buf, nil
	case TypeInt:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return Null, nil, fmt.Errorf("sqldb: bad checkpoint int")
		}
		return NewInt(v), buf[n:], nil
	case TypeFloat:
		if len(buf) < 8 {
			return Null, nil, fmt.Errorf("sqldb: truncated checkpoint float")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf))), buf[8:], nil
	case TypeText:
		s, rest, err := wal.TakeString(buf)
		if err != nil {
			return Null, nil, err
		}
		return NewText(s), rest, nil
	case TypeBool:
		if len(buf) < 1 {
			return Null, nil, fmt.Errorf("sqldb: truncated checkpoint bool")
		}
		return NewBool(buf[0] != 0), buf[1:], nil
	default:
		return Null, nil, fmt.Errorf("sqldb: unknown checkpoint value type %d", typ)
	}
}
