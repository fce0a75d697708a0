// Package wire implements the platform's client/server network protocol:
// a length-prefixed binary framing over TCP, a server that fronts the
// platform's controller hierarchy (internal/core via internal/system), and
// a Go client library with connection pooling, pipelining, per-call
// deadlines, and retry of retryable errors. The paper's tenants spoke JDBC
// to a real network service; this package is that hop for the
// reproduction. PROTOCOL.md is the normative wire specification — the
// message-type constants below are cross-checked against it by
// `make doc-check` (cmd/doccheck -proto).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"

	"sdp/internal/obs"
	"sdp/internal/sqldb"
)

// ProtoVersion is the protocol revision carried in the handshake. A server
// refuses a client that speaks any other.
const ProtoVersion = 2

// MaxFrameSize bounds one frame (length prefix excluded). A peer announcing
// a larger frame is protocol-broken and the connection is closed.
const MaxFrameSize = 16 << 20

// frameHeaderSize is the fixed prefix after the u32 length: one type byte
// plus the u64 sequence ID.
const frameHeaderSize = 1 + 8

// Message types, client → server. The values are the wire bytes; names
// must match PROTOCOL.md (checked by cmd/doccheck -proto).
const (
	// MsgHello opens a session: protocol version, database, auth token.
	MsgHello = 0x01
	// MsgQuery executes one SQL string with parameters (simple query;
	// parsed server-side through the shared statement cache).
	MsgQuery = 0x02
	// MsgPrepare parses a statement once and returns a statement ID.
	MsgPrepare = 0x03
	// MsgExec executes a previously prepared statement by ID — the hot
	// path: no SQL text, no re-parse, plan-cache hit on the engine.
	MsgExec = 0x04
	// MsgBegin opens an explicit transaction on the session.
	MsgBegin = 0x05
	// MsgCommit commits the session's open transaction.
	MsgCommit = 0x06
	// MsgRollback aborts the session's open transaction.
	MsgRollback = 0x07
	// MsgCloseStmt discards a prepared statement.
	MsgCloseStmt = 0x08
	// MsgPing is a liveness probe; the server answers MsgPong.
	MsgPing = 0x09
	// MsgQuit asks for an orderly close; the server answers MsgBye.
	MsgQuit = 0x0A
)

// Message types, server → client.
const (
	// MsgWelcome acknowledges MsgHello: version plus a server banner.
	MsgWelcome = 0x81
	// MsgStmt acknowledges MsgPrepare with the new statement ID.
	MsgStmt = 0x82
	// MsgResult carries a statement's result set or affected-row count.
	MsgResult = 0x83
	// MsgError reports a failure: a numeric code (see ErrCode*) + text.
	MsgError = 0x84
	// MsgPong answers MsgPing.
	MsgPong = 0x85
	// MsgBye acknowledges MsgQuit (and is the last frame of a drain).
	MsgBye = 0x86
)

// Error codes carried by MsgError. Codes at or above ErrCodeRejected are
// retryable: the transaction (if any) was rolled back server-side and the
// client may simply retry, exactly as with the in-process API's
// sdp.IsRetryable. Names must match PROTOCOL.md.
const (
	// ErrCodeProtocol: malformed frame, bad version, message out of order.
	ErrCodeProtocol = 1
	// ErrCodeAuth: handshake token rejected for the requested database.
	ErrCodeAuth = 2
	// ErrCodeParse: SQL syntax error.
	ErrCodeParse = 3
	// ErrCodeDatabase: unknown database or colo routing failure.
	ErrCodeDatabase = 4
	// ErrCodeTxnState: BEGIN inside a transaction, COMMIT outside one, …
	ErrCodeTxnState = 5
	// ErrCodeStmt: unknown prepared-statement ID.
	ErrCodeStmt = 6
	// ErrCodeExec: non-retryable statement failure (duplicate key, type
	// mismatch, no such table/column, …).
	ErrCodeExec = 7
	// ErrCodeRejected: proactive Algorithm 1 rejection during replica
	// creation. Retryable.
	ErrCodeRejected = 100
	// ErrCodeDeadlock: chosen as deadlock victim. Retryable.
	ErrCodeDeadlock = 101
	// ErrCodeLockTimeout: lock wait exceeded the engine bound. Retryable.
	ErrCodeLockTimeout = 102
	// ErrCodeOptimisticConflict is reserved: the lock-free read path that
	// produced it is gone and no server sends it. A client still decodes it
	// (as retryable) so the number is never reused for something else.
	ErrCodeOptimisticConflict = 103
	// ErrCodeStaleRoute: routed to a machine that no longer hosts the
	// database. Retryable — a retry re-routes.
	ErrCodeStaleRoute = 104
	// ErrCodeMachineFailed: a hosting machine failed mid-transaction.
	// Retryable.
	ErrCodeMachineFailed = 105
	// ErrCodeUnavailable: transient platform condition (2PC prepare
	// timeout, all replicas unreachable, simulated network fault).
	// Retryable.
	ErrCodeUnavailable = 106
	// ErrCodeShutdown: the server is draining; reconnect and retry.
	ErrCodeShutdown = 107
	// ErrCodeNotLeader: the contacted controller replica is not the
	// consensus leader, or the controller quorum is currently lost. The
	// message carries a leader hint when one is known. Retryable — a retry
	// lands after failover completes.
	ErrCodeNotLeader = 108
)

// Error is a server-reported failure decoded from a MsgError frame. It
// unwraps to the canonical in-process sentinel for its code, so
// errors.Is(err, sqldb.ErrDeadlock) and core.IsRetryable keep working
// across the network hop.
type Error struct {
	// Code is the wire error code (ErrCode*).
	Code uint16
	// Msg is the server's human-readable message.
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("wire: [%d] %s", e.Code, e.Msg) }

// Unwrap maps the code back to the matching in-process sentinel error.
func (e *Error) Unwrap() error { return sentinelFor(e.Code) }

// Retryable reports whether the error is transient and the operation can
// be retried (possibly on a new connection).
func (e *Error) Retryable() bool { return e.Code >= ErrCodeRejected }

// ErrServerShutdown is the sentinel unwrapped by ErrCodeShutdown errors.
var ErrServerShutdown = errors.New("wire: server shutting down")

// errProtocol is the sentinel behind ErrCodeProtocol responses.
var errProtocol = errors.New("wire: protocol error")

// IsRetryable reports whether err is retryable from the client's point of
// view: a retryable wire error code, or a connection-level failure on an
// idempotent operation the caller knows never reached execution.
func IsRetryable(err error) bool {
	var we *Error
	if errors.As(err, &we) {
		return we.Retryable()
	}
	return false
}

// frame is one decoded protocol frame. Its payload is the string a reader
// decodes (see reader).
type frame struct {
	typ     byte
	seq     uint64
	payload string
}

// writeFrame encodes one frame to w: u32 length (type+seq+payload), u8
// type, u64 seq, payload. It returns the number of bytes written.
func writeFrame(w io.Writer, typ byte, seq uint64, payload []byte) (int, error) {
	n := len(payload)
	if n > MaxFrameSize-frameHeaderSize {
		return 0, fmt.Errorf("%w: frame payload %d bytes exceeds limit", errProtocol, n)
	}
	hdr := make([]byte, 4+frameHeaderSize)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(frameHeaderSize+n))
	hdr[4] = typ
	binary.BigEndian.PutUint64(hdr[5:13], seq)
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	if n > 0 {
		if _, err := w.Write(payload); err != nil {
			return len(hdr), err
		}
	}
	return len(hdr) + n, nil
}

// readFrame decodes one frame from r, enforcing MaxFrameSize. Short reads
// mid-frame surface as io.ErrUnexpectedEOF.
func readFrame(r io.Reader) (frame, int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, 0, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < frameHeaderSize {
		return frame{}, 4, fmt.Errorf("%w: frame length %d below header size", errProtocol, n)
	}
	if n > MaxFrameSize {
		return frame{}, 4, fmt.Errorf("%w: frame length %d exceeds limit", errProtocol, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, 4, err
	}
	// The payload string shares the frame's one allocation: nothing writes
	// buf after this.
	return frame{
		typ:     buf[0],
		seq:     binary.BigEndian.Uint64(buf[1:9]),
		payload: unsafe.String(unsafe.SliceData(buf), len(buf))[9:],
	}, 4 + int(n), nil
}

// ---------------------------------------------------------------------------
// Payload encoding primitives. All integers are big-endian; strings are
// u32 length + UTF-8 bytes; values travel as rows in the row encoding the
// engine stores (sqldb.EncodeRow): a parameter list is one row, and so is
// each row of a result.

// errShortPayload reports a payload that does not decode: it ends short of
// what it announces, or holds a row encoding sqldb.DecodeRowPrefix refuses.
var errShortPayload = errors.New("wire: malformed payload")

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// reader is a cursor over a payload, held as one string: the strings and
// text values decoded from it are substrings of it, not copies, so each
// keeps the whole payload alive; what outlives the request is cloned.
// Decode methods record the first error and become no-ops after it, so call
// sites stay linear.
type reader struct {
	buf string
	off int
	err error
}

// take returns the next n bytes of the payload, or "" once it runs short.
func (r *reader) take(n int) string {
	if r.err != nil || n > len(r.buf)-r.off {
		r.err = errShortPayload
		return ""
	}
	s := r.buf[r.off : r.off+n]
	r.off += n
	return s
}

// uint reads an n-byte big-endian integer.
func (r *reader) uint(n int) uint64 {
	var v uint64
	for _, b := range []byte(r.take(n)) {
		v = v<<8 | uint64(b)
	}
	return v
}

func (r *reader) u8() byte    { return byte(r.uint(1)) }
func (r *reader) u16() uint16 { return uint16(r.uint(2)) }
func (r *reader) u32() uint32 { return uint32(r.uint(4)) }
func (r *reader) u64() uint64 { return r.uint(8) }
func (r *reader) str() string { return r.take(int(r.u32())) }

// row decodes the row encoding at the cursor; its values share the payload.
func (r *reader) row() sqldb.Row {
	if r.err != nil {
		return nil
	}
	row, n, err := sqldb.DecodeRowPrefix(r.buf[r.off:], nil)
	if err != nil {
		r.err = fmt.Errorf("%w: %v", errShortPayload, err)
		return nil
	}
	r.off += n
	return row
}

// done reports whether the payload was consumed exactly; trailing garbage
// is a protocol error.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", errProtocol, len(r.buf)-r.off)
	}
	return nil
}

// traceFlagSampled marks the trace context as head-sampled; it is the only
// flag bit defined.
const traceFlagSampled = 0x01

// appendTraceContext appends the optional trailing trace-context field of
// MsgQuery/MsgExec: u8 flags (bit0 = sampled), u64 trace_id, u64 span_id.
// An unsampled context appends nothing, which keeps the hot path free of
// the 17 extra bytes.
func appendTraceContext(b []byte, tc obs.SpanContext) []byte {
	if !tc.Traced() {
		return b
	}
	b = append(b, traceFlagSampled)
	b = appendU64(b, tc.TraceID)
	return appendU64(b, tc.SpanID)
}

// traceContext decodes the optional trailing trace-context field if the
// payload has bytes left; a payload that ends exactly here simply carries
// no context. Called immediately before done().
func (r *reader) traceContext() obs.SpanContext {
	if r.err != nil || r.off >= len(r.buf) {
		return obs.SpanContext{}
	}
	flags := r.u8()
	tc := obs.SpanContext{TraceID: r.u64(), SpanID: r.u64(), Sampled: flags&traceFlagSampled != 0}
	if r.err != nil {
		return obs.SpanContext{}
	}
	return tc
}

// encodeResult encodes a MsgResult payload: u16 column count + names, u32
// row count + rows (each a row encoding), u32 affected.
func encodeResult(b []byte, res *sqldb.Result) ([]byte, error) {
	if res == nil {
		res = &sqldb.Result{}
	}
	if len(res.Cols) > math.MaxUint16 {
		return b, fmt.Errorf("%w: %d columns", errProtocol, len(res.Cols))
	}
	b = appendU16(b, uint16(len(res.Cols)))
	for _, c := range res.Cols {
		b = appendString(b, c)
	}
	b = appendU32(b, uint32(len(res.Rows)))
	for _, row := range res.Rows {
		b = sqldb.EncodeRow(b, row)
	}
	return appendU32(b, uint32(res.Affected)), nil
}

// decodeResult decodes a MsgResult payload. The counts only bound loops: each
// column name and row takes bytes of the payload, so a forged count fails
// instead of sizing an allocation.
func decodeResult(payload string) (*sqldb.Result, error) {
	r := &reader{buf: payload}
	res := &sqldb.Result{}
	for n := r.u16(); n > 0 && r.err == nil; n-- {
		res.Cols = append(res.Cols, r.str())
	}
	for n := r.u32(); n > 0 && r.err == nil; n-- {
		res.Rows = append(res.Rows, r.row())
	}
	res.Affected = int(r.u32())
	if err := r.done(); err != nil {
		return nil, err
	}
	return res, nil
}

// encodeError encodes a MsgError payload: u16 code + message string.
func encodeError(b []byte, code uint16, msg string) []byte {
	return appendString(appendU16(b, code), msg)
}

// decodeError decodes a MsgError payload into a *Error.
func decodeError(payload string) (*Error, error) {
	r := &reader{buf: payload}
	e := &Error{Code: r.u16(), Msg: r.str()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return e, nil
}
