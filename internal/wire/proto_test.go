package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sdp/internal/core"
	"sdp/internal/sqldb"
)

// TestFrameRoundTrip writes frames of assorted sizes and reads them back.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		buf.Reset()
		n, err := writeFrame(&buf, MsgQuery, uint64(i)+7, p)
		if err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		if n != buf.Len() {
			t.Fatalf("writeFrame reported %d bytes, wrote %d", n, buf.Len())
		}
		f, rn, err := readFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if rn != n {
			t.Fatalf("readFrame reported %d bytes, frame was %d", rn, n)
		}
		if f.typ != MsgQuery || f.seq != uint64(i)+7 || !bytes.Equal(f.payload, p) {
			t.Fatalf("frame mismatch: %+v", f)
		}
	}
}

// TestFrameRejectsOversize checks the 16 MiB frame cap on both sides.
func TestFrameRejectsOversize(t *testing.T) {
	var hdr [frameHeaderSize]byte
	hdr[0] = 0xFF // length field far beyond MaxFrameSize
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	_, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])))
	if !errors.Is(err, errProtocol) {
		t.Fatalf("oversize frame: got %v, want errProtocol", err)
	}
	if _, err := writeFrame(io.Discard, MsgQuery, 1, make([]byte, MaxFrameSize+1)); !errors.Is(err, errProtocol) {
		t.Fatalf("oversize write: got %v, want errProtocol", err)
	}
}

// TestFrameShortRead checks that truncated frames surface as unexpected EOF,
// not as a hang or a bogus frame.
func TestFrameShortRead(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, MsgQuery, 3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := readFrame(bufio.NewReader(bytes.NewReader(whole[:cut])))
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("cut=%d: got %v, want EOF class", cut, err)
		}
	}
}

// valueCorpus covers every tag including edge values.
func valueCorpus() []sqldb.Value {
	return []sqldb.Value{
		{},
		sqldb.NewInt(0),
		sqldb.NewInt(-1),
		sqldb.NewInt(math.MaxInt64),
		sqldb.NewInt(math.MinInt64),
		sqldb.NewFloat(0),
		sqldb.NewFloat(math.Inf(-1)),
		sqldb.NewFloat(3.25),
		sqldb.NewText(""),
		sqldb.NewText("héllo \x00 wörld"),
		sqldb.NewText(strings.Repeat("x", 70000)), // needs a u32 length
		sqldb.NewBool(true),
		sqldb.NewBool(false),
	}
}

// TestValueRoundTrip encodes every corpus value and decodes it back.
func TestValueRoundTrip(t *testing.T) {
	for _, v := range valueCorpus() {
		buf, err := appendValue(nil, v)
		if err != nil {
			t.Fatalf("appendValue(%v): %v", v, err)
		}
		r := &reader{buf: buf}
		got := r.value()
		if err := r.done(); err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip: got %#v want %#v", got, v)
		}
	}
}

// TestResultRoundTrip round-trips a result set with every value kind.
func TestResultRoundTrip(t *testing.T) {
	vals := valueCorpus()
	res := &sqldb.Result{
		Cols:     []string{"a", "b"},
		Affected: 42,
	}
	for i := 0; i+1 < len(vals); i += 2 {
		res.Rows = append(res.Rows, sqldb.Row{vals[i], vals[i+1]})
	}
	buf, err := encodeResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Affected != res.Affected || len(got.Cols) != 2 || len(got.Rows) != len(res.Rows) {
		t.Fatalf("shape mismatch: %+v", got)
	}
	for i, row := range res.Rows {
		for j, v := range row {
			if got.Rows[i][j] != v {
				t.Fatalf("row %d col %d: got %#v want %#v", i, j, got.Rows[i][j], v)
			}
		}
	}
	// nil result (DDL acks) must round-trip too.
	buf, err = encodeResult(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = decodeResult(buf); err != nil || len(got.Cols) != 0 || len(got.Rows) != 0 {
		t.Fatalf("nil result round trip: %+v, %v", got, err)
	}
}

// TestErrorRoundTrip checks code+message encoding and sentinel unwrapping, on
// the reserved code 103: no server sends it, a client must still decode it as
// retryable.
func TestErrorRoundTrip(t *testing.T) {
	buf := encodeError(nil, ErrCodeOptimisticConflict, "row moved")
	e, err := decodeError(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != ErrCodeOptimisticConflict || !strings.Contains(e.Error(), "row moved") {
		t.Fatalf("decoded %+v", e)
	}
	if !errors.Is(e, sqldb.ErrOptimisticConflict) {
		t.Fatal("wire error does not unwrap to sqldb.ErrOptimisticConflict")
	}
	if !e.Retryable() || !IsRetryable(e) {
		t.Fatal("conflict should be retryable")
	}
	dl := &Error{Code: ErrCodeDeadlock, Msg: "victim"}
	if !core.IsRetryable(dl) {
		t.Fatal("core.IsRetryable should see through the wire error")
	}
	if IsRetryable(&Error{Code: ErrCodeParse, Msg: "no"}) {
		t.Fatal("parse errors must not be retryable")
	}
}

// TestErrorCodeMappingInverse checks codeFor/sentinelFor agree for every
// retryable sentinel: server-side classification then client-side
// unwrapping must land errors.Is back on the original.
func TestErrorCodeMappingInverse(t *testing.T) {
	for _, sentinel := range []error{
		sqldb.ErrDeadlock,
		sqldb.ErrLockTimeout,
		core.ErrStaleRoute,
		core.ErrMachineFailed,
		core.ErrNoDatabase,
	} {
		code := codeFor(sentinel)
		we := &Error{Code: code, Msg: sentinel.Error()}
		if !errors.Is(we, sentinel) {
			t.Fatalf("code %d does not unwrap back to %v", code, sentinel)
		}
	}
	// In-process-retryable sentinels must stay retryable across the wire.
	for _, sentinel := range []error{sqldb.ErrDeadlock, sqldb.ErrLockTimeout, core.ErrStaleRoute, core.ErrMachineFailed} {
		if we := (&Error{Code: codeFor(sentinel)}); !we.Retryable() {
			t.Fatalf("%v lost retryability over the wire", sentinel)
		}
	}
}

// TestReaderRejectsTrailingBytes ensures done() catches over-long payloads.
func TestReaderRejectsTrailingBytes(t *testing.T) {
	buf := appendString(nil, "x")
	buf = append(buf, 0xFF)
	r := &reader{buf: buf}
	_ = r.str()
	if err := r.done(); !errors.Is(err, errProtocol) {
		t.Fatalf("trailing byte: got %v, want errProtocol", err)
	}
}

// TestDecodeRandomGarbage throws random bytes at every decoder: none may
// panic, and errors must be errProtocol-classified.
func TestDecodeRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		protoClass := func(err error) bool {
			return errors.Is(err, errProtocol) || errors.Is(err, errShortPayload)
		}
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		if _, err := decodeResult(buf); err != nil && !protoClass(err) {
			t.Fatalf("decodeResult: non-protocol error %v", err)
		}
		if _, err := decodeError(buf); err != nil && !protoClass(err) {
			t.Fatalf("decodeError: non-protocol error %v", err)
		}
		r := &reader{buf: buf}
		_ = r.params()
		if err := r.done(); err != nil && !protoClass(err) {
			t.Fatalf("params: non-protocol error %v", err)
		}
	}
}

// TestForgedCountsAllocateNothing sends each decoder a value count of 65 535
// with one value behind it: a MsgQuery's and a MsgExec's parameters (decoded
// as the server's handlers do) and a MsgResult row. Each must be refused as
// truncated before the count sizes a slice.
func TestForgedCountsAllocateNothing(t *testing.T) {
	forged := []byte{0xFF, 0xFF, tagNull}
	decode := map[string]func() error{
		"query params": func() error {
			r := &reader{buf: append(appendString(nil, "SELECT 1"), forged...)}
			_, _ = r.str(), r.params()
			return r.done()
		},
		"exec params": func() error {
			r := &reader{buf: append(appendU32(nil, 1), forged...)}
			_, _ = r.u32(), r.params()
			return r.done()
		},
		"result row": func() error {
			// No columns, one row of 65 535 values.
			_, err := decodeResult([]byte{0, 0, 0, 0, 0, 1, 0xFF, 0xFF})
			return err
		},
	}
	for name, fn := range decode {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fn()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errShortPayload) {
			t.Errorf("%s: got %v, want a truncated-payload error", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("%s: decoding allocated %d bytes", name, n)
		}
	}
}

// FuzzDecodeFrame fuzzes the frame decoder with raw byte streams.
func FuzzDecodeFrame(f *testing.F) {
	var buf bytes.Buffer
	_, _ = writeFrame(&buf, MsgQuery, 9, appendString(nil, "SELECT 1"))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, MsgQuery, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to an identical stream.
		var out bytes.Buffer
		if _, err := writeFrame(&out, fr.typ, fr.seq, fr.payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		consumed := frameHeaderSize + len(fr.payload) + 4
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

// FuzzDecodeResult fuzzes the result decoder.
func FuzzDecodeResult(f *testing.F) {
	seed, _ := encodeResult(nil, &sqldb.Result{Cols: []string{"a"}, Rows: []sqldb.Row{{sqldb.NewInt(1)}}})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeResult(data)
		if err != nil {
			return
		}
		// A decoded result must re-encode cleanly.
		if _, err := encodeResult(nil, res); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}
