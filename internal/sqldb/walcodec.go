package sqldb

import (
	"fmt"

	"sdp/internal/wal"
)

// The payloads this package puts in log frames. Both carry values in the
// row encoding pages use (page.go's EncodeRow), so one codec spells a value
// everywhere: on a page, in a table image, as a logged statement's parameter
// and on the wire, where internal/wire sends parameter lists and result rows
// as EncodeRow rows.
//
// A RecStatement frame's Data is the statement as it ran:
//
//	redo   := text(string) params(row)
//
// text is what Parse was given, params the values bound to its ? markers
// (none for DDL). A RecCheckpointTable or RecRestoreTable frame's Data is a
// table image, the one byte codec for TableDump:
//
//	image  := table(string) ncols(uvarint) col* nidx(uvarint) idx*
//	          nrows(uvarint) row*
//	col    := name(string) type(uvarint) flags(uint8)   // 1 PK, 2 NOT NULL, 4 UNIQUE
//	idx    := name(string) col(string) unique(uint8)
//	row    := EncodeRow's encoding, ncols values
//	string := len(uvarint) bytes

// appendRedo appends a statement record's payload to buf.
func appendRedo(buf []byte, text string, params []Value) []byte {
	return EncodeRow(wal.AppendString(buf, text), params)
}

// decodeRedo splits a statement record's payload into its text and its
// parameters, which share one copy of the payload.
func decodeRedo(data []byte) (string, []Value, error) {
	s := string(data)
	n, sz := uvarint(s)
	if sz <= 0 || n > uint64(len(s)-sz) {
		return "", nil, fmt.Errorf("sqldb: redo record: bad text length")
	}
	end := sz + int(n)
	params, err := DecodeRow(s[end:], nil)
	if err != nil {
		return "", nil, fmt.Errorf("sqldb: redo record: %w", err)
	}
	return s[sz:end], params, nil
}

// imageHead serialises a table dump for an image frame up to its rows, which
// follow it in the frame: the log appends them as they are (see wal.Log.Append).
func imageHead(d TableDump) []byte {
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
	return wal.AppendUvarint(buf, uint64(len(d.Rows)))
}

// decodeTableImage parses an image frame payload back into a table dump.
func decodeTableImage(data []byte) (TableDump, error) {
	var d TableDump
	table, rest, err := wal.TakeString(data)
	if err != nil {
		return d, err
	}
	// A column takes at least 3 bytes, an index 3.
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
		if cols[i].Typ = Type(typ); typ < uint64(TypeInt) || typ > uint64(TypeBool) {
			return d, fmt.Errorf("sqldb: checkpoint column %s has type %s", cols[i].Name, cols[i].Typ)
		}
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
	// A row is at least its arity byte and one type byte a value.
	nrows, rest, err := takeCount(rest, ncols+1)
	if err != nil {
		return d, err
	}
	enc := string(rest) // one private copy: the rows are cut from it
	d.Rows = make([]string, nrows)
	var row Row
	for i := range d.Rows {
		var n int
		if row, n, err = DecodeRowPrefix(enc, row); err != nil {
			return d, err
		}
		// Refuse a row the engine could not have stored: one CheckRow
		// refuses, or one holding a value of another type than its column's
		// (CheckRow takes an INT for a FLOAT column, but a stored row holds
		// the widened value).
		for j, v := range row {
			if j < ncols && !v.IsNull() && v.Typ != cols[j].Typ {
				return d, fmt.Errorf("%w: column %s.%s wants %s, got %s", ErrTypeMismatch, table, cols[j].Name, cols[j].Typ, v.Typ)
			}
		}
		if err := d.Schema.CheckRow(row); err != nil {
			return d, err
		}
		d.Rows[i], enc = enc[:n], enc[n:]
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
