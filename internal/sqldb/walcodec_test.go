package sqldb

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// encodeTableImage is an image frame's whole payload, as the log writes it:
// the image's head and then its rows.
func encodeTableImage(d TableDump) []byte {
	buf := imageHead(d)
	for _, r := range d.Rows {
		buf = append(buf, r...)
	}
	return buf
}

// TestTableImageRoundTrip pushes a table with every value type, NULLs, a
// deleted row and a secondary index through the image codec and checks that
// the decoded image, restored into a second engine, answers like the source.
func TestTableImageRoundTrip(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT NOT NULL, f FLOAT UNIQUE, b BOOL)")
	mustExec(t, e, "CREATE UNIQUE INDEX idx_f ON t (f)")
	mustExec(t, e, "CREATE INDEX idx_v ON t (v)")
	for i := 0; i < 150; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, 'v%d', %d.5, %v)", i, i%7, i, i%2 == 0))
	}
	mustExec(t, e, "DELETE FROM t WHERE id = 13")
	mustExec(t, e, "INSERT INTO t VALUES (999, '', NULL, NULL)")

	src := dumpAll(t, e)[0]
	img, err := decodeTableImage(encodeTableImage(src))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := img.Schema, src.Schema; got.Table != want.Table || !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatalf("decoded schema %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(img.Indexes, src.Indexes) {
		t.Fatalf("decoded indexes %+v, want %+v", img.Indexes, src.Indexes)
	}
	e2 := newTestDB(t)
	if err := e2.RestoreTable("app", img); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT COUNT(*), SUM(id), SUM(f) FROM t",
		"SELECT COUNT(*) FROM t WHERE v = 'v3'", // via the restored index
		"SELECT v, f, b FROM t WHERE id = 999",
		"SELECT id FROM t WHERE b = TRUE AND id < 10",
	} {
		want, got := mustExec(t, e, q), mustExec(t, e2, q)
		if fmt.Sprint(want.Rows) != fmt.Sprint(got.Rows) {
			t.Errorf("%s: %v vs %v", q, want.Rows, got.Rows)
		}
	}
	// Constraints travel with the image: UNIQUE and NOT NULL hold.
	if _, err := e2.Exec("app", "INSERT INTO t VALUES (1000, 'dup', 5.5, TRUE)"); err == nil {
		t.Error("restored UNIQUE column accepted a duplicate")
	}
	if _, err := e2.Exec("app", "INSERT INTO t VALUES (1001, NULL, 0.25, TRUE)"); err == nil {
		t.Error("restored NOT NULL column accepted NULL")
	}
	mustExec(t, e2, "INSERT INTO t VALUES (1002, 'new', 0.75, TRUE)")
}

// TestTableImageRejectsDamage feeds the decoder every proper prefix of a
// valid image, and garbage: each must fail cleanly, never panic or succeed.
func TestTableImageRejectsDamage(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT, f FLOAT, b BOOL)")
	mustExec(t, e, "CREATE INDEX idx_v ON t (v)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'x', 1.5, TRUE)")
	mustExec(t, e, "INSERT INTO t VALUES (2, NULL, NULL, NULL)")
	data := encodeTableImage(dumpAll(t, e)[0])
	for n := 0; n < len(data); n++ {
		if _, err := decodeTableImage(data[:n]); err == nil {
			t.Fatalf("image truncated to %d of %d bytes decoded without error", n, len(data))
		}
	}
	if _, err := decodeTableImage([]byte("not a table image at all")); err == nil {
		t.Error("garbage accepted")
	}
	// Well-formed images the engine could not have written: a column of a
	// type no CREATE TABLE declares, and rows CheckRow refuses or that hold a
	// value of another type than their column's.
	image := func(typ Type, notNull bool, rows ...Row) []byte {
		schema, err := NewSchema("t", []Column{{Name: "id", Typ: TypeInt, PrimaryKey: true}, {Name: "v", Typ: typ, NotNull: notNull}})
		if err != nil {
			t.Fatal(err)
		}
		return encodeTableImage(TableDump{Schema: schema, Rows: encodeRows(rows...)})
	}
	for name, data := range map[string][]byte{
		"bad-col-type":           image(Type(9), false, Row{NewInt(1), NewInt(5)}),
		"bad-col-type-no-rows":   image(Type(9), false),
		"row-type-mismatch":      image(TypeInt, false, Row{NewInt(1), NewText("x")}),
		"int-in-float-column":    image(TypeFloat, false, Row{NewInt(1), NewInt(5)}),
		"null-in-not-null":       image(TypeText, true, Row{NewInt(1), Null}),
		"row-arity-one-too-many": image(TypeBool, false, Row{NewInt(1), NewBool(true), NewBool(false)}),
	} {
		if d, err := decodeTableImage(data); err == nil {
			t.Errorf("%s: decoded to %+v", name, d)
		}
	}
	if _, err := decodeTableImage(image(TypeFloat, true, Row{NewInt(1), NewFloat(5)})); err != nil {
		t.Errorf("a valid image was refused: %v", err)
	}
}

// FuzzDecodeTableImage feeds arbitrary bytes to the checkpoint table image
// decoder: every input is either rejected or decodes to a dump whose image
// decodes again and re-encodes to the same bytes; never a panic or an
// allocation sized by a count the input only claims. The committed corpus
// (testdata/fuzz/FuzzDecodeTableImage) holds images whose column, index or
// row count is 2^62; it runs as a plain test.
func FuzzDecodeTableImage(f *testing.F) {
	schema, err := NewSchema("t", []Column{
		{Name: "id", Typ: TypeInt, PrimaryKey: true},
		{Name: "v", Typ: TypeText, Unique: true},
		{Name: "f", Typ: TypeFloat},
		{Name: "b", Typ: TypeBool, NotNull: true},
	})
	if err != nil {
		f.Fatal(err)
	}
	img := encodeTableImage(TableDump{
		Schema:  schema,
		Indexes: []IndexDef{{Name: "idx_v", Col: "v", Unique: true}},
		Rows: encodeRows(
			Row{NewInt(1), NewText("x"), NewFloat(1.5), NewBool(true)},
			Row{NewInt(-2), Null, Null, NewBool(false)},
		),
	})
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeTableImage(data)
		if err != nil {
			return
		}
		again := encodeTableImage(d)
		d2, err := decodeTableImage(again)
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if !bytes.Equal(encodeTableImage(d2), again) {
			t.Fatal("image changes across a second decode")
		}
	})
}

// FuzzDecodeRedo feeds arbitrary bytes to the statement record decoder: every
// input is either rejected or decodes to a text and parameters whose record
// decodes to the same text and the same values, bit for bit, and re-encodes
// to the same bytes; never a panic or an allocation sized by a count the
// input only claims. The committed corpus (testdata/fuzz/FuzzDecodeRedo)
// holds a record for each of edgeValues and one whose parameter count is
// 2^62; every prefix of a record holding all of edgeValues is a seed here.
func FuzzDecodeRedo(f *testing.F) {
	rec := appendRedo(nil, "UPDATE edge SET f = ?, n = ? WHERE id IN (?, ?, ?, ?, ?)", edgeValues)
	for n := 0; n <= len(rec); n++ {
		f.Add(rec[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		text, params, err := decodeRedo(data)
		if err != nil {
			return
		}
		again := appendRedo(nil, text, params)
		text2, params2, err := decodeRedo(again)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if text2 != text || !sameCells(params2, params) {
			t.Fatalf("record changes across a second decode: %q %v, then %q %v", text, params, text2, params2)
		}
		if !bytes.Equal(appendRedo(nil, text2, params2), again) {
			t.Fatal("record bytes change across a second decode")
		}
	})
}

// TestRedoRecordRejectsTruncation feeds the decoder every proper prefix of a
// record: each must fail, never decode to fewer parameters or a shorter text.
func TestRedoRecordRejectsTruncation(t *testing.T) {
	rec := appendRedo(nil, "DELETE FROM edge WHERE f = ? OR n = ?", edgeValues[:5])
	for n := 0; n < len(rec); n++ {
		if text, params, err := decodeRedo(rec[:n]); err == nil {
			t.Fatalf("record truncated to %d of %d bytes decoded to %q %v", n, len(rec), text, params)
		}
	}
}
