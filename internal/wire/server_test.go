package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdp/internal/core"
	"sdp/internal/sqldb"
)

// clusterBackend adapts a cluster controller to Backend for tests.
type clusterBackend struct {
	c     *core.Cluster
	token string
}

func (b clusterBackend) Authenticate(db, token string) error {
	if token != b.token {
		return errors.New("bad token")
	}
	return nil
}

func (b clusterBackend) Begin(db string) (Txn, error) {
	t, err := b.c.Begin(db)
	if err != nil {
		return nil, err
	}
	return clusterTxn{t}, nil
}

// clusterTxn adapts core.Txn's ExecStmt (no SQL text) to the wire shape.
type clusterTxn struct{ *core.Txn }

func (t clusterTxn) ExecStmt(sql string, stmt sqldb.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return t.Txn.ExecStmt(stmt, params...)
}

const testToken = "secret"

// newTestServer boots a 2-replica cluster with database "app" (table t,
// 100 rows) behind a wire server on an ephemeral port.
func newTestServer(t *testing.T) (*Server, *core.Cluster) {
	t.Helper()
	c := core.NewCluster("wiretest", core.Options{Replicas: 2})
	if _, err := c.AddMachines(2); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("app", "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Exec("app", fmt.Sprintf("INSERT INTO t VALUES (%d, 'v%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Serve("127.0.0.1:0", ServerConfig{Backend: clusterBackend{c: c, token: testToken}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, c
}

func newTestClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	client, err := Dial(ClientConfig{Addr: srv.Addr(), Database: "app", Token: testToken, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client
}

// TestServerQueryRoundTrip covers the simple-query path end to end.
func TestServerQueryRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)
	client := newTestClient(t, srv)

	res, err := client.Query("SELECT v FROM t WHERE id = ?", sqldb.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "v7" {
		t.Fatalf("got %+v", res.Rows)
	}
	if _, err := client.Exec("UPDATE t SET v = 'updated' WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	res, err = client.Query("SELECT v FROM t WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str != "updated" {
		t.Fatalf("update not visible: %+v", res.Rows)
	}
	if _, err := client.Query("SELECT nope FROM missing"); err == nil {
		t.Fatal("query on missing table should fail")
	}
	var we *Error
	if _, err := client.Query("THIS IS NOT SQL"); !errors.As(err, &we) || we.Code != ErrCodeParse {
		t.Fatalf("parse failure got %v, want ErrCodeParse", err)
	}
}

// TestServerPreparedStatements covers PREPARE/EXEC including result
// correctness across many executions and CloseStmt via client close.
func TestServerPreparedStatements(t *testing.T) {
	srv, _ := newTestServer(t)
	client := newTestClient(t, srv)

	stmt, err := client.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		res, err := stmt.Exec(sqldb.NewInt(int64(i % 100)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str != fmt.Sprintf("v%d", i%100) {
			t.Fatalf("iteration %d: got %+v", i, res.Rows)
		}
	}
	// Preparing the same text again returns the interned handle.
	again, err := client.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if again != stmt {
		t.Fatal("Prepare did not intern by SQL text")
	}
	// A broken statement surfaces its parse error on first execution.
	bad, err := client.Prepare("SELEKT broken")
	if err != nil {
		t.Fatal(err)
	}
	var we *Error
	if _, err := bad.Exec(); !errors.As(err, &we) || we.Code != ErrCodeParse {
		t.Fatalf("got %v, want ErrCodeParse", err)
	}
}

// TestServerTransactions covers BEGIN/COMMIT/ROLLBACK over the wire.
func TestServerTransactions(t *testing.T) {
	srv, _ := newTestServer(t)
	client := newTestClient(t, srv)

	tx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE t SET v = 'tx' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := client.Query("SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str != "tx" {
		t.Fatalf("committed write lost: %+v", res.Rows)
	}

	tx, err = client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE t SET v = 'rolled' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, err = client.Query("SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str != "tx" {
		t.Fatalf("rollback did not restore: %+v", res.Rows)
	}

	// Double commit reports ErrTxnDone client-side without a round trip.
	if err := tx.Commit(); !errors.Is(err, sqldb.ErrTxnDone) {
		t.Fatalf("double finish: got %v", err)
	}
}

// TestServerAuth covers the handshake failure paths.
func TestServerAuth(t *testing.T) {
	srv, _ := newTestServer(t)

	_, err := Dial(ClientConfig{Addr: srv.Addr(), Database: "app", Token: "wrong"})
	var we *Error
	if !errors.As(err, &we) || we.Code != ErrCodeAuth {
		t.Fatalf("bad token: got %v, want ErrCodeAuth", err)
	}

	// A raw connection must not get past the handshake requirement.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	payload := sqldb.EncodeRow(appendString(nil, "SELECT 1"), nil)
	if _, err := writeFrame(nc, MsgQuery, 1, payload); err != nil {
		t.Fatal(err)
	}
	f, _, err := readFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	e, derr := decodeError(f.payload)
	if f.typ != MsgError || derr != nil || e.Code != ErrCodeProtocol {
		t.Fatalf("pre-handshake query: got frame %v err %v", f.typ, derr)
	}

	// Any other protocol version is refused, version 1's value format
	// included.
	for _, ver := range []byte{1, 99} {
		nc2, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc2.Close()
		hello := appendString(appendString([]byte{ver}, "app"), testToken)
		if _, err := writeFrame(nc2, MsgHello, 1, hello); err != nil {
			t.Fatal(err)
		}
		f, _, err = readFrame(nc2)
		if err != nil {
			t.Fatal(err)
		}
		if e, _ := decodeError(f.payload); f.typ != MsgError || e == nil || e.Code != ErrCodeProtocol {
			t.Fatalf("version %d: got frame type %#x", ver, f.typ)
		}
	}
}

// TestServerMalformedFrames throws framing garbage at a live server; every
// torture connection must be rejected cleanly and the server must keep
// serving well-formed clients afterwards.
func TestServerMalformedFrames(t *testing.T) {
	srv, _ := newTestServer(t)

	cases := [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0},                  // oversized length
		{0, 0, 0, 1, MsgHello},                                // length below header size
		{0, 0, 0, 42},                                         // truncated: length only
		{0, 0, 0, 13, MsgHello, 0, 0, 0},                      // truncated mid-header
		[]byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"), // wrong protocol entirely
	}
	for i, raw := range cases {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(raw); err != nil {
			t.Fatal(err)
		}
		// Torture payloads that parse as a bogus frame get an error reply;
		// ones that cut off mid-frame just hang up. Either way the
		// connection must die promptly.
		_ = nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		f, _, rerr := readFrame(nc)
		if rerr == nil {
			if f.typ != MsgError {
				t.Fatalf("case %d: got frame type %#x, want MsgError or close", i, f.typ)
			}
			if e, _ := decodeError(f.payload); e == nil || e.Code != ErrCodeProtocol {
				t.Fatalf("case %d: want ErrCodeProtocol", i)
			}
		}
		_ = nc.Close()
	}
	// Truncated-but-valid-prefix frames: write a good frame minus its tail,
	// then close; the server must not crash or leak the session.
	var buf []byte
	buf = appendString(appendString([]byte{ProtoVersion}, "app"), testToken)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	whole := make([]byte, 0, 64)
	whole = appendU32(whole, uint32(frameHeaderSize+len(buf)))
	whole = append(whole, MsgHello)
	whole = appendU64(whole, 1)
	whole = append(whole, buf...)
	if _, err := nc.Write(whole[:len(whole)-3]); err != nil {
		t.Fatal(err)
	}
	_ = nc.Close()

	// The server still answers a healthy client.
	client := newTestClient(t, srv)
	if _, err := client.Query("SELECT v FROM t WHERE id = 0"); err != nil {
		t.Fatalf("server unhealthy after torture: %v", err)
	}
}

// TestServerPipelining issues many concurrent requests over a small shared
// pool; responses must route back to their callers by sequence ID.
func TestServerPipelining(t *testing.T) {
	srv, _ := newTestServer(t)
	client := newTestClient(t, srv) // PoolSize 2: heavy multiplexing
	stmt, err := client.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errsCh := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := (g*50 + i) % 100
				res, err := stmt.Exec(sqldb.NewInt(int64(id)))
				if err != nil {
					errsCh <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].Str != fmt.Sprintf("v%d", id) {
					errsCh <- fmt.Errorf("wrong row for id %d: %+v", id, res.Rows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		t.Fatal(err)
	}
}

// TestPipelinedClientsVsDDL races pipelined prepared reads against
// concurrent DDL + writes on other tables (run under -race in CI).
func TestPipelinedClientsVsDDL(t *testing.T) {
	srv, _ := newTestServer(t)
	client := newTestClient(t, srv)
	stmt, err := client.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errsCh := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := stmt.Exec(sqldb.NewInt(int64((g*31 + i) % 100))); err != nil {
					errsCh <- err
					return
				}
			}
		}(g)
	}
	ddl := newTestClient(t, srv)
	for i := 0; i < 20; i++ {
		table := fmt.Sprintf("ddl_%d", i)
		if _, err := ddl.Exec(fmt.Sprintf("CREATE TABLE %s (id INT PRIMARY KEY, n INT)", table)); err != nil {
			t.Fatal(err)
		}
		if _, err := ddl.Exec(fmt.Sprintf("INSERT INTO %s VALUES (1, %d)", table, i)); err != nil {
			t.Fatal(err)
		}
		res, err := ddl.Query(fmt.Sprintf("SELECT n FROM %s WHERE id = 1", table))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int != int64(i) {
			t.Fatalf("table %s: got %+v", table, res.Rows)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		t.Fatal(err)
	}
}

// TestServerGracefulDrain checks Close lets in-flight work finish and says
// goodbye; later calls on the client fail as server-shutdown.
func TestServerGracefulDrain(t *testing.T) {
	srv, _ := newTestServer(t)
	client := newTestClient(t, srv)
	if _, err := client.Query("SELECT v FROM t WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The draining (or drained) server must not accept this operation; any
	// path — MsgBye-induced conn death or dial refusal — is acceptable, but
	// it must fail fast, not hang.
	done := make(chan error, 1)
	go func() {
		_, err := client.Query("SELECT v FROM t WHERE id = 4")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("query succeeded after drain")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query hung after drain")
	}
}

// TestDrainByeRetriesPendingWrite has a draining server say goodbye instead
// of answering an UPDATE: the call provably did not execute, so the client
// must send it again on a new connection — once — and succeed.
func TestDrainByeRetriesPendingWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var updates atomic.Int64 // UPDATEs the second connection received
	go func() {
		for conn := 0; ; conn++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn int, nc net.Conn) {
				defer nc.Close()
				br := bufio.NewReader(nc)
				for {
					f, _, err := readFrame(br)
					if err != nil {
						return
					}
					switch {
					case f.typ == MsgHello:
						_, err = writeFrame(nc, MsgWelcome, f.seq, nil)
					case conn == 0:
						_, _ = writeFrame(nc, MsgBye, 0, nil) // drained: f was never executed
						return
					default:
						if f.typ == MsgQuery && strings.Contains(f.payload, "UPDATE") {
							updates.Add(1)
						}
						var payload []byte
						if payload, err = encodeResult(nil, &sqldb.Result{Affected: 1}); err == nil {
							_, err = writeFrame(nc, MsgResult, f.seq, payload)
						}
					}
					if err != nil {
						return
					}
				}
			}(conn, nc)
		}
	}()
	client, err := Dial(ClientConfig{Addr: ln.Addr().String(), Database: "app", PoolSize: 1, RetryLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Exec("UPDATE t SET v = 1 WHERE id = 1")
	if err != nil || res.Affected != 1 {
		t.Fatalf("UPDATE pending at the goodbye: %v, %v; want it retried on a new connection", res, err)
	}
	if n := updates.Load(); n != 1 {
		t.Fatalf("the second connection received the UPDATE %d times, want once", n)
	}
}

// TestClientRetry exercises the autocommit retry loop against a backend
// that fails with retryable errors before succeeding.
func TestClientRetry(t *testing.T) {
	fb := &flakyBackend{failFirst: 3}
	srv, err := Serve("127.0.0.1:0", ServerConfig{Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(ClientConfig{Addr: srv.Addr(), Database: "app", RetryLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Exec("UPDATE t SET v = 1 WHERE id = 1"); err != nil {
		t.Fatalf("retry loop gave up: %v", err)
	}
	if got := fb.begins.Load(); got != 4 {
		t.Fatalf("expected 4 attempts (3 failures + success), backend saw %d", got)
	}
	// Non-retryable errors must surface immediately.
	fb.failFirst = 1 << 30
	fb.hard = true
	before := fb.begins.Load()
	if _, err := client.Exec("UPDATE t SET v = 1 WHERE id = 1"); err == nil {
		t.Fatal("hard error should fail")
	}
	if fb.begins.Load() != before+1 {
		t.Fatal("hard error must not be retried")
	}
}

// flakyBackend fails the first N transactions with a retryable conflict.
type flakyBackend struct {
	begins    atomic.Int64
	failFirst int64
	hard      bool
}

func (f *flakyBackend) Authenticate(db, token string) error { return nil }

func (f *flakyBackend) Begin(db string) (Txn, error) {
	n := f.begins.Add(1)
	return flakyTxn{fail: n <= f.failFirst, hard: f.hard}, nil
}

type flakyTxn struct{ fail, hard bool }

func (t flakyTxn) ExecStmt(sql string, stmt sqldb.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	if t.hard {
		return nil, errors.New("hard failure")
	}
	if t.fail {
		return nil, sqldb.ErrDeadlock
	}
	return &sqldb.Result{Affected: 1}, nil
}

func (t flakyTxn) Commit() error   { return nil }
func (t flakyTxn) Rollback() error { return nil }

// gateBackend answers every statement with one row once its gate is closed.
type gateBackend struct{ gate chan struct{} }

func (b gateBackend) Authenticate(db, token string) error { return nil }
func (b gateBackend) Begin(db string) (Txn, error)        { return b, nil }
func (b gateBackend) Commit() error                       { return nil }
func (b gateBackend) Rollback() error                     { return nil }

func (b gateBackend) ExecStmt(sql string, stmt sqldb.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	<-b.gate
	return &sqldb.Result{Affected: 1}, nil
}

// writeCountingConn counts the writes that reach the connection.
type writeCountingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// helloFrame is the handshake of a test client on database "app".
func helloFrame(t *testing.T, w io.Writer) {
	t.Helper()
	payload := appendString(appendString([]byte{ProtoVersion}, "app"), testToken)
	if _, err := writeFrame(w, MsgHello, 1, payload); err != nil {
		t.Fatal(err)
	}
}

// expectReplies reads count frames of type typ from r, checking that their
// sequence IDs run upward from firstSeq: requests were answered in order.
func expectReplies(t *testing.T, r io.Reader, typ byte, firstSeq uint64, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		f, _, err := readFrame(r)
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i, count, err)
		}
		if f.typ != typ || f.seq != firstSeq+uint64(i) {
			t.Fatalf("reply %d: type %#x seq %d, want type %#x seq %d", i, f.typ, f.seq, typ, firstSeq+uint64(i))
		}
	}
}

// pipeSession serves one session of a server over gateBackend{gate} on the
// far end of an in-memory pipe and completes the handshake. A pipe write
// returns once the session has taken every byte, so a burst written in one
// call sits whole in the session's read buffer. served closes when the
// session ends.
func pipeSession(t *testing.T, gate chan struct{}) (client net.Conn, sess *session, conn *writeCountingConn, served chan struct{}) {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", ServerConfig{Backend: gateBackend{gate}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, serverSide := net.Pipe()
	t.Cleanup(func() { _ = client.Close() })
	conn = &writeCountingConn{Conn: serverSide}
	sess = newSession(srv, conn)
	served = make(chan struct{})
	go func() {
		defer close(served)
		sess.serve()
	}()
	helloFrame(t, client)
	expectReplies(t, client, MsgWelcome, 1, 1)
	return client, sess, conn, served
}

// queryBurst encodes count MsgQuery frames with sequence IDs from firstSeq.
func queryBurst(t *testing.T, firstSeq uint64, count int) []byte {
	t.Helper()
	var buf bytes.Buffer
	payload := sqldb.EncodeRow(appendString(nil, "SELECT v FROM t WHERE id = 1"), nil)
	for i := 0; i < count; i++ {
		if _, err := writeFrame(&buf, MsgQuery, firstSeq+uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSessionBatchesPipelinedBurst hands a session a burst of requests in
// one segment: each must be answered, in order, and the replies must leave
// in a few writes rather than one per request.
func TestSessionBatchesPipelinedBurst(t *testing.T) {
	gate := make(chan struct{})
	close(gate)
	client, _, conn, served := pipeSession(t, gate)
	conn.writes.Store(0)

	const burst = 64
	requests := queryBurst(t, 2, burst)
	go func() { _, _ = client.Write(requests) }()
	expectReplies(t, client, MsgResult, 2, burst)
	if w := conn.writes.Load(); w > 4 {
		t.Fatalf("%d replies left in %d writes, want them batched into at most 4", burst, w)
	}

	if _, err := writeFrame(client, MsgQuit, 2+burst, nil); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, client, MsgBye, 2+burst, 1)
	<-served
}

// TestSessionFlushesBeforePartialFrame sends a request followed by the first
// half of the next one: the first reply must arrive while the session waits
// for the rest of the second frame, not after it.
func TestSessionFlushesBeforePartialFrame(t *testing.T) {
	gate := make(chan struct{})
	close(gate)
	client, _, _, served := pipeSession(t, gate)

	requests := queryBurst(t, 2, 2)
	cut := len(requests) * 3 / 4
	if _, err := client.Write(requests[:cut]); err != nil {
		t.Fatal(err)
	}
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	expectReplies(t, client, MsgResult, 2, 1)
	if _, err := client.Write(requests[cut:]); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, client, MsgResult, 3, 1)

	if _, err := writeFrame(client, MsgQuit, 4, nil); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, client, MsgBye, 4, 1)
	<-served
}

// TestSessionDrainAnswersReceivedRequests starts a drain while a session is
// executing the first request of a burst it has already received: every
// request of the burst must still be answered, in order, before the
// unsolicited goodbye.
func TestSessionDrainAnswersReceivedRequests(t *testing.T) {
	gate := make(chan struct{})
	client, sess, _, served := pipeSession(t, gate)

	const burst = 64
	if _, err := client.Write(queryBurst(t, 2, burst)); err != nil {
		t.Fatal(err)
	}
	sess.startDrain()
	close(gate)
	expectReplies(t, client, MsgResult, 2, burst)
	expectReplies(t, client, MsgBye, 0, 1)
	<-served
}

// TestFullSocketBlocksSender stalls the backend and keeps sending: with
// nothing reading the socket the sender must block once the buffers between
// it and the session are full, and every request that was sent must still be
// answered, in order, once the backend moves again.
func TestFullSocketBlocksSender(t *testing.T) {
	gate := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", ServerConfig{Backend: gateBackend{gate}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	helloFrame(t, nc)
	expectReplies(t, nc, MsgWelcome, 1, 1)

	// 1 KB requests, so the kernel's socket buffers fill after thousands of
	// frames rather than hundreds of thousands.
	sql := "SELECT v FROM t WHERE v = '" + strings.Repeat("x", 1024) + "'"
	payload := sqldb.EncodeRow(appendString(nil, sql), nil)
	const limit = 1 << 20 // frames: far more than any socket buffer holds
	sent := 0
	var partial []byte // unsent tail of the frame the blocked write cut
	for ; sent < limit; sent++ {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, MsgQuery, uint64(2+sent), payload); err != nil {
			t.Fatal(err)
		}
		_ = nc.SetWriteDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := nc.Write(buf.Bytes())
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatal(err)
			}
			if n > 0 {
				partial = buf.Bytes()[n:]
				sent++
			}
			break
		}
	}
	if sent == limit {
		t.Fatalf("sent %d requests to a stalled session without blocking", limit)
	}

	close(gate)
	_ = nc.SetWriteDeadline(time.Time{})
	if _, err := nc.Write(partial); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, bufio.NewReader(nc), MsgResult, 2, sent)
}
