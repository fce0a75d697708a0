package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdp/internal/obs"
	"sdp/internal/sqldb"
)

// ClientConfig tunes a wire client.
type ClientConfig struct {
	// Addr is the server's TCP address. Required.
	Addr string
	// Database is the tenant database every session binds to. Required.
	Database string
	// Token authenticates the handshake.
	Token string
	// PoolSize caps the number of shared (multiplexed) connections
	// autocommit calls pipeline over (default 4). Explicit transactions
	// pin dedicated connections drawn from a separate idle list.
	PoolSize int
	// CallTimeout is the per-call deadline: how long one request may wait
	// for its response before the connection is declared dead (default
	// 30s).
	CallTimeout time.Duration
	// RetryLimit is how many times autocommit calls retry retryable
	// errors (ErrStaleRoute, deadlock victims, lock time-outs, …)
	// before giving up (default 5). Explicit transactions never retry:
	// the application owns their statement sequence.
	RetryLimit int
	// RetryBackoff is the initial backoff between retries, doubled per
	// attempt (default 200µs).
	RetryBackoff time.Duration
	// Metrics, when set, receives client-side trace spans (into its span
	// ring). Nil disables client tracing entirely.
	Metrics *obs.Registry
	// TraceSample is the head-sampling fraction for calls made by this
	// client (0 = never, 1 = every call). A sampled call becomes the root
	// of a distributed trace: the client span's context rides the MsgQuery/
	// MsgExec frame so the server's spans link under it.
	TraceSample float64
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 30 * time.Second
	}
	if c.RetryLimit <= 0 {
		c.RetryLimit = 5
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 200 * time.Microsecond
	}
	return c
}

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("wire: client closed")

// errConnDead marks a connection-level failure (as opposed to a
// server-reported MsgError); the pooled connection is discarded.
var errConnDead = errors.New("wire: connection failed")

// Client is a pooled wire-protocol client bound to one database. All
// methods are safe for concurrent use. Autocommit calls (Exec, Query,
// Stmt.Exec) multiplex over a fixed set of shared connections — each
// caller's request is pipelined with a sequence ID and matched to its
// response out of order, so thousands of goroutines can share a handful
// of sockets. Begin pins a dedicated connection for the transaction's
// lifetime, because a transaction is connection state on the server.
type Client struct {
	cfg     ClientConfig
	sampler *obs.Sampler  // nil when tracing is off
	spans   *obs.SpanRing // destination for client spans

	rr uint64 // round-robin cursor over shared connections

	mu     sync.Mutex
	shared []*clientConn // multiplexed autocommit connections, lazily dialed
	txIdle []*clientConn // idle dedicated connections for transactions
	closed bool
	stmts  map[string]*Stmt // interned prepared statements by SQL text
}

// Dial connects to a wire server and verifies the handshake once; further
// connections are opened lazily as load grows.
func Dial(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{cfg: cfg, shared: make([]*clientConn, cfg.PoolSize), stmts: make(map[string]*Stmt)}
	if cfg.Metrics != nil && cfg.TraceSample > 0 {
		c.sampler = obs.NewSampler(cfg.TraceSample)
		c.spans = cfg.Metrics.Spans()
	}
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.shared[0] = cc
	return c, nil
}

// Close releases every pooled connection (sending MsgQuit on each).
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := append([]*clientConn{}, c.txIdle...)
	for _, cc := range c.shared {
		if cc != nil {
			conns = append(conns, cc)
		}
	}
	c.txIdle, c.shared = nil, nil
	c.mu.Unlock()
	for _, cc := range conns {
		cc.quit()
	}
	return nil
}

// dial opens and handshakes one connection.
func (c *Client) dial() (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", c.cfg.Addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	cc := &clientConn{
		c:       c,
		conn:    nc,
		bw:      bufio.NewWriterSize(nc, 4096),
		pending: make(map[uint64]chan frame),
		stmtIDs: make(map[*Stmt]uint32),
	}
	go cc.readLoop()
	payload := appendString(appendString([]byte{ProtoVersion}, c.cfg.Database), c.cfg.Token)
	f, err := cc.roundTrip(MsgHello, payload)
	if err != nil {
		cc.close()
		return nil, err
	}
	switch f.typ {
	case MsgWelcome:
		return cc, nil
	case MsgError:
		cc.close()
		e, derr := decodeError(f.payload)
		if derr != nil {
			return nil, derr
		}
		return nil, e
	default:
		cc.close()
		return nil, fmt.Errorf("%w: unexpected handshake reply type 0x%02x", errProtocol, f.typ)
	}
}

// sharedConn returns a live multiplexed connection, round-robin across the
// pool, redialing dead slots.
func (c *Client) sharedConn() (*clientConn, error) {
	slot := int(atomic.AddUint64(&c.rr, 1) % uint64(c.cfg.PoolSize))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if cc := c.shared[slot]; cc != nil && !cc.dead() {
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.quit()
		return nil, ErrClientClosed
	}
	if old := c.shared[slot]; old != nil && !old.dead() {
		// Another goroutine repaired the slot first; use theirs.
		c.mu.Unlock()
		cc.quit()
		return old, nil
	}
	c.shared[slot] = cc
	c.mu.Unlock()
	return cc, nil
}

// txConn checks a dedicated connection out for a transaction.
func (c *Client) txConn() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	for n := len(c.txIdle); n > 0; n = len(c.txIdle) {
		cc := c.txIdle[n-1]
		c.txIdle = c.txIdle[:n-1]
		if !cc.dead() {
			c.mu.Unlock()
			return cc, nil
		}
		cc.close()
	}
	c.mu.Unlock()
	return c.dial()
}

// putTxConn returns a transaction connection to the idle list.
func (c *Client) putTxConn(cc *clientConn) {
	if cc.dead() {
		cc.close()
		return
	}
	c.mu.Lock()
	if c.closed || len(c.txIdle) >= c.cfg.PoolSize {
		c.mu.Unlock()
		cc.quit()
		return
	}
	c.txIdle = append(c.txIdle, cc)
	c.mu.Unlock()
}

// traceStart makes the head-sampling decision for one client call. A
// sampled call mints a fresh trace with the client span as its root; the
// returned context travels in the request frame so every server-side span
// links under it.
func (c *Client) traceStart() obs.SpanContext {
	if c.sampler == nil || !c.sampler.Sample(c.cfg.Database) {
		return obs.SpanContext{}
	}
	return obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewTraceID(), Sampled: true}
}

// traceFinish records the completed client root span.
func (c *Client) traceFinish(tc obs.SpanContext, start time.Time, name, detail string) {
	if !tc.Traced() {
		return
	}
	c.spans.Record(obs.Span{
		TraceID:  tc.TraceID,
		SpanID:   tc.SpanID,
		Scope:    "client",
		Name:     name,
		ID:       c.cfg.Database,
		Start:    start,
		Duration: time.Since(start),
		Detail:   detail,
	})
}

// Exec runs one statement in its own transaction (autocommit), retrying
// retryable errors with exponential backoff — the same contract as the
// in-process sdp.Conn.Exec plus the retry loop a remote client needs.
func (c *Client) Exec(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	tc := c.traceStart()
	start := time.Now()
	res, err := c.withRetry(isReadSQL(sql), func(cc *clientConn) (*sqldb.Result, error) {
		payload := sqldb.EncodeRow(appendString(requestBuf(len(sql)), sql), params)
		return cc.execFrame(MsgQuery, appendTraceContext(payload, tc))
	})
	c.traceFinish(tc, start, "query", sql)
	return res, err
}

// requestBuf is an empty MsgQuery/MsgExec payload with room for n bytes of
// SQL text beside the fixed fields, a few small parameters and the trace
// context, so a typical request is built in one allocation.
func requestBuf(n int) []byte { return make([]byte, 0, n+64) }

// Query is Exec for SELECT statements; provided for readability.
func (c *Client) Query(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	return c.Exec(sql, params...)
}

// Stmt is a client-side prepared statement. It is prepared lazily on each
// pooled connection the first time it executes there, so one Stmt is valid
// across the whole pool.
type Stmt struct {
	c    *Client
	sql  string
	read bool
}

// Prepare interns a prepared statement for sql. Preparation on the server
// happens lazily per connection; errors in the SQL text surface on first
// execution.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}
	if s, ok := c.stmts[sql]; ok {
		return s, nil
	}
	s := &Stmt{c: c, sql: sql, read: isReadSQL(sql)}
	c.stmts[sql] = s
	return s, nil
}

// Exec runs the prepared statement in its own transaction (autocommit)
// with retry, sending only the statement ID and parameters — no SQL text,
// no server-side re-parse.
func (s *Stmt) Exec(params ...sqldb.Value) (*sqldb.Result, error) {
	tc := s.c.traceStart()
	start := time.Now()
	res, err := s.c.withRetry(s.read, func(cc *clientConn) (*sqldb.Result, error) {
		return cc.execPrepared(s, params, tc)
	})
	s.c.traceFinish(tc, start, "exec", s.sql)
	return res, err
}

// isReadSQL reports whether a statement is safe to re-send after an
// ambiguous connection failure: reads are idempotent, writes are not (the
// first send may have committed).
func isReadSQL(sql string) bool {
	head := strings.ToUpper(strings.TrimSpace(sql))
	return strings.HasPrefix(head, "SELECT") || strings.HasPrefix(head, "EXPLAIN")
}

// withRetry picks a shared connection, runs fn, and retries retryable wire
// errors. A server-reported retryable error means the transaction was
// rolled back, so any statement may retry; a dead connection is an
// ambiguous outcome and only reads re-send.
func (c *Client) withRetry(read bool, fn func(cc *clientConn) (*sqldb.Result, error)) (*sqldb.Result, error) {
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.RetryLimit; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		cc, err := c.sharedConn()
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return nil, err
			}
			lastErr = err
			continue
		}
		res, err := fn(cc)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if IsRetryable(err) {
			continue
		}
		if errors.Is(err, errConnDead) && read {
			continue
		}
		return nil, err
	}
	return nil, lastErr
}

// Tx is an explicit transaction pinned to one dedicated connection.
type Tx struct {
	c    *Client
	cc   *clientConn
	done bool
}

// Begin opens an explicit transaction. The transaction owns its connection
// until Commit or Rollback.
func (c *Client) Begin() (*Tx, error) {
	cc, err := c.txConn()
	if err != nil {
		return nil, err
	}
	if _, err := cc.execFrame(MsgBegin, nil); err != nil {
		c.putTxConn(cc)
		return nil, err
	}
	return &Tx{c: c, cc: cc}, nil
}

// Exec runs one statement inside the transaction.
func (t *Tx) Exec(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	if t.done {
		return nil, sqldb.ErrTxnDone
	}
	tc := t.c.traceStart()
	start := time.Now()
	payload := sqldb.EncodeRow(appendString(requestBuf(len(sql)), sql), params)
	res, err := t.cc.execFrame(MsgQuery, appendTraceContext(payload, tc))
	t.c.traceFinish(tc, start, "query", sql)
	return res, err
}

// ExecPrepared runs a prepared statement inside the transaction.
func (t *Tx) ExecPrepared(s *Stmt, params ...sqldb.Value) (*sqldb.Result, error) {
	if t.done {
		return nil, sqldb.ErrTxnDone
	}
	tc := t.c.traceStart()
	start := time.Now()
	res, err := t.cc.execPrepared(s, params, tc)
	t.c.traceFinish(tc, start, "exec", s.sql)
	return res, err
}

// Commit commits the transaction and returns the connection to the pool.
func (t *Tx) Commit() error { return t.finish(MsgCommit) }

// Rollback aborts the transaction and returns the connection to the pool.
func (t *Tx) Rollback() error { return t.finish(MsgRollback) }

func (t *Tx) finish(typ byte) error {
	if t.done {
		return sqldb.ErrTxnDone
	}
	t.done = true
	_, err := t.cc.execFrame(typ, nil)
	if err != nil {
		// When a statement error already aborted the transaction
		// server-side, the session has no open transaction left; a client
		// Rollback finding that state has succeeded, not failed.
		var we *Error
		if typ == MsgRollback && errors.As(err, &we) && we.Code == ErrCodeTxnState {
			err = nil
		}
	}
	t.c.putTxConn(t.cc)
	return err
}

// clientConn is one physical connection. Requests are written under a
// mutex with a per-connection sequence number; a reader goroutine routes
// responses to waiters by sequence ID, so any number of goroutines can
// pipeline requests over the same connection and receive their answers
// out of send order.
type clientConn struct {
	c    *Client
	conn net.Conn

	wmu sync.Mutex // serialises frame writes
	bw  *bufio.Writer
	seq uint64

	pmu     sync.Mutex
	pending map[uint64]chan frame
	err     error // set once the connection is dead

	smu     sync.Mutex
	stmtIDs map[*Stmt]uint32 // server-side IDs, lazily prepared
}

func (cc *clientConn) dead() bool {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	return cc.err != nil
}

// readLoop routes response frames to their waiters until the connection
// dies; then it fails every pending call.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.conn, 4096)
	for {
		f, _, err := readFrame(br)
		if err != nil {
			cc.fail(fmt.Errorf("%w: %v", errConnDead, err))
			return
		}
		if f.typ == MsgBye && f.seq == 0 {
			// Unsolicited goodbye: the server is draining. It answers in order
			// and says goodbye after its last reply, so no call still pending
			// was executed: each may be sent again, writes included.
			cc.fail(&Error{Code: ErrCodeShutdown, Msg: "server drained the connection before executing the call"})
			return
		}
		cc.pmu.Lock()
		ch, ok := cc.pending[f.seq]
		if ok {
			delete(cc.pending, f.seq)
		}
		cc.pmu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// fail marks the connection dead and wakes all waiters.
func (cc *clientConn) fail(err error) {
	cc.pmu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	pending := cc.pending
	cc.pending = make(map[uint64]chan frame)
	cc.pmu.Unlock()
	_ = cc.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}

func (cc *clientConn) close() { cc.fail(errConnDead) }

// quit sends a best-effort MsgQuit then closes.
func (cc *clientConn) quit() {
	cc.wmu.Lock()
	cc.seq++
	_, _ = writeFrame(cc.bw, MsgQuit, cc.seq, nil)
	_ = cc.bw.Flush()
	cc.wmu.Unlock()
	cc.close()
}

// waiter is what one in-flight call blocks on: the channel readLoop delivers
// the response into and the timer that bounds the wait. A call that got its
// response with the timer still pending hands the pair to the next call.
type waiter struct {
	ch    chan frame
	timer *time.Timer
}

var waiters = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan frame, 1), timer: t}
}}

// roundTrip sends one frame and waits (under the call timeout) for the
// response with the same sequence ID.
func (cc *clientConn) roundTrip(typ byte, payload []byte) (frame, error) {
	w := waiters.Get().(*waiter)
	cc.wmu.Lock()
	// The liveness check and the registration share one critical section:
	// a waiter registered after fail swapped the pending map out would never
	// be woken, though its request could still reach the socket before fail
	// closes it.
	cc.pmu.Lock()
	if err := cc.err; err != nil {
		cc.pmu.Unlock()
		cc.wmu.Unlock()
		waiters.Put(w)
		return frame{}, err
	}
	cc.seq++
	seq := cc.seq
	cc.pending[seq] = w.ch
	cc.pmu.Unlock()
	_, werr := writeFrame(cc.bw, typ, seq, payload)
	if werr == nil {
		werr = cc.bw.Flush()
	}
	cc.wmu.Unlock()
	if werr != nil {
		// fail closes w.ch (or readLoop may still deliver into it): either
		// way the pair is spent.
		cc.fail(fmt.Errorf("%w: %v", errConnDead, werr))
		return frame{}, cc.connErr()
	}

	timeout := cc.c.cfg.CallTimeout
	w.timer.Reset(timeout)
	select {
	case f, ok := <-w.ch:
		// Reuse the pair only when the timer was stopped before it fired:
		// then nothing is, or ever will be, in either channel.
		stopped := w.timer.Stop()
		if !ok {
			return frame{}, cc.connErr()
		}
		if stopped {
			waiters.Put(w)
		}
		return f, nil
	case <-w.timer.C:
		// The response never came inside the deadline: the connection is
		// unusable (its stream position is unknown). Kill it; the waiter
		// map entry is cleared by fail.
		cc.fail(fmt.Errorf("%w: call timed out after %v", errConnDead, timeout))
		return frame{}, cc.connErr()
	}
}

func (cc *clientConn) connErr() error {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	return errConnDead
}

// execFrame round-trips a request expecting MsgResult.
func (cc *clientConn) execFrame(typ byte, payload []byte) (*sqldb.Result, error) {
	f, err := cc.roundTrip(typ, payload)
	if err != nil {
		return nil, err
	}
	return decodeExecReply(f)
}

// execPrepared executes a Stmt on this connection, preparing it here first
// if this connection has not seen it yet.
func (cc *clientConn) execPrepared(s *Stmt, params []sqldb.Value, tc obs.SpanContext) (*sqldb.Result, error) {
	id, err := cc.stmtID(s)
	if err != nil {
		return nil, err
	}
	payload := sqldb.EncodeRow(appendU32(requestBuf(0), id), params)
	return cc.execFrame(MsgExec, appendTraceContext(payload, tc))
}

// stmtID returns the server-side ID of s on this connection, preparing it
// on first use.
func (cc *clientConn) stmtID(s *Stmt) (uint32, error) {
	cc.smu.Lock()
	id, ok := cc.stmtIDs[s]
	cc.smu.Unlock()
	if ok {
		return id, nil
	}
	f, err := cc.roundTrip(MsgPrepare, appendString(nil, s.sql))
	if err != nil {
		return 0, err
	}
	switch f.typ {
	case MsgStmt:
		r := &reader{buf: f.payload}
		id = r.u32()
		if err := r.done(); err != nil {
			return 0, err
		}
		cc.smu.Lock()
		cc.stmtIDs[s] = id
		cc.smu.Unlock()
		return id, nil
	case MsgError:
		e, derr := decodeError(f.payload)
		if derr != nil {
			return 0, derr
		}
		return 0, e
	default:
		return 0, fmt.Errorf("%w: unexpected prepare reply type 0x%02x", errProtocol, f.typ)
	}
}

// decodeExecReply turns a response frame into a result or error.
func decodeExecReply(f frame) (*sqldb.Result, error) {
	switch f.typ {
	case MsgResult:
		return decodeResult(f.payload)
	case MsgError:
		e, derr := decodeError(f.payload)
		if derr != nil {
			return nil, derr
		}
		return nil, e
	default:
		return nil, fmt.Errorf("%w: unexpected reply type 0x%02x", errProtocol, f.typ)
	}
}
