package sdp

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"sdp/internal/sqldb"
	"sdp/internal/wire"
)

// newWirePlatform boots a one-colo platform with a wire server, a token-
// protected database "app", and a seeded table.
func newWirePlatform(t *testing.T) (*Platform, *wire.Server) {
	t.Helper()
	p := New(Config{ClusterSize: 4, Listen: "127.0.0.1:0"})
	p.AddColo("dc1", "west", 4)
	if err := p.CreateDatabase("app", SLA{SizeMB: 50, MinTPS: 1, MaxRejectFraction: 1}, "dc1"); err != nil {
		t.Fatal(err)
	}
	p.SetToken("app", "s3cret")
	conn := p.Open("app")
	if _, err := conn.Exec("CREATE TABLE users (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO users VALUES (1, 'ada')"); err != nil {
		t.Fatal(err)
	}
	srv, err := p.ServeWire()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return p, srv
}

// TestWireSmoke is the tier-1 smoke test of the client/server split: start
// a server, connect, run one prepared point read, and confirm the network
// hop stays on the compiled executor.
func TestWireSmoke(t *testing.T) {
	_, srv := newWirePlatform(t)

	client, err := wire.Dial(wire.ClientConfig{Addr: srv.Addr(), Database: "app", Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	stmt, err := client.Prepare("SELECT name FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec(Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "ada" {
		t.Fatalf("prepared point read: got %+v", res.Rows)
	}

	// EXPLAIN over the network reports the engine's access path: the point
	// read goes by primary key.
	ex, err := client.Query("EXPLAIN SELECT name FROM users WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Rows) != 1 || ex.Rows[0][1].Str != "point" || ex.Rows[0][2].Str != "id = 1" {
		t.Fatalf("EXPLAIN over the wire does not show a point read of id = 1: %+v", ex.Rows)
	}

	// Transactions over the wire reach the same replicated engines.
	tx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO users VALUES (2, 'grace')"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = client.Query("SELECT name FROM users WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "grace" {
		t.Fatalf("wire transaction lost: %+v", res.Rows)
	}
}

// TestWireAuthPerTenant checks the platform's token table: right token in,
// wrong token out, unknown database out.
func TestWireAuthPerTenant(t *testing.T) {
	p, srv := newWirePlatform(t)

	var we *wire.Error
	_, err := wire.Dial(wire.ClientConfig{Addr: srv.Addr(), Database: "app", Token: "nope"})
	if !errors.As(err, &we) || we.Code != wire.ErrCodeAuth {
		t.Fatalf("wrong token: got %v, want auth error", err)
	}
	if !strings.Contains(we.Msg, ErrBadToken.Error()) {
		t.Fatalf("auth error should carry the ErrBadToken message, got %q", we.Msg)
	}

	if _, err := wire.Dial(wire.ClientConfig{Addr: srv.Addr(), Database: "ghost", Token: "s3cret"}); err == nil {
		t.Fatal("unknown database must not authenticate")
	}

	// A database without a registered token accepts any token.
	if err := p.CreateDatabase("open", SLA{SizeMB: 50, MinTPS: 1, MaxRejectFraction: 1}, "dc1"); err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(wire.ClientConfig{Addr: srv.Addr(), Database: "open", Token: "anything"})
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
}

// TestPlatformPreparedStatements covers the in-process Conn.Prepare/Stmt
// and Tx.ExecPrepared paths added alongside the wire protocol.
func TestPlatformPreparedStatements(t *testing.T) {
	p, _ := newWirePlatform(t)
	conn := p.Open("app")

	stmt, err := conn.Prepare("SELECT name FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec(Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "ada" {
		t.Fatalf("got %+v", res.Rows)
	}

	ins, err := conn.Prepare("INSERT INTO users VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := conn.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecPrepared(ins, Int(10), Text("lin")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = stmt.Exec(Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "lin" {
		t.Fatalf("prepared insert lost: %+v", res.Rows)
	}
}

// TestWireRollbackAndErrors drives, over a real socket, what the smoke test
// does not: ROLLBACK, a prepared statement inside a transaction, and a
// statement error, which must reach the client with its code and text.
func TestWireRollbackAndErrors(t *testing.T) {
	_, srv := newWirePlatform(t)
	client, err := wire.Dial(wire.ClientConfig{Addr: srv.Addr(), Database: "app", Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ins, err := client.Prepare("INSERT INTO users VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecPrepared(ins, Int(7), Text("rolled back")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, err := client.Query("SELECT COUNT(*) FROM users WHERE id = 7")
	if err != nil || res.Rows[0][0].Int != 0 {
		t.Fatalf("rolled-back insert is visible: %v, err = %v", res, err)
	}

	_, err = client.Exec("INSERT INTO users VALUES (1, 'again')")
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.ErrCodeExec || wire.IsRetryable(err) {
		t.Fatalf("duplicate key over the wire: %v", err)
	}
	if errors.Is(err, sqldb.ErrDeadlock) || !strings.Contains(err.Error(), sqldb.ErrDuplicateKey.Error()) {
		t.Fatalf("duplicate key changed its meaning over the wire: %v", err)
	}
}

// TestWireCloseStmt speaks the protocol by hand, frame by frame as
// PROTOCOL.md lays them out, because the Go client never closes a statement:
// prepare, close, and the ID is gone; a truncated payload ends the session.
func TestWireCloseStmt(t *testing.T) {
	_, srv := newWirePlatform(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	str := func(s string) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(s))), s...)
	}
	var seq uint64
	call := func(typ byte, payload []byte) (byte, []byte) {
		t.Helper()
		seq++
		out := binary.BigEndian.AppendUint32(nil, uint32(9+len(payload)))
		out = binary.BigEndian.AppendUint64(append(out, typ), seq)
		if _, err := conn.Write(append(out, payload...)); err != nil {
			t.Fatal(err)
		}
		var n [4]byte
		if _, err := io.ReadFull(conn, n[:]); err != nil {
			t.Fatal(err)
		}
		in := make([]byte, binary.BigEndian.Uint32(n[:]))
		if _, err := io.ReadFull(conn, in); err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint64(in[1:9]); got != seq {
			t.Fatalf("reply to seq %d carries seq %d", seq, got)
		}
		return in[0], in[9:]
	}
	hello := append(append([]byte{wire.ProtoVersion}, str("app")...), str("s3cret")...)
	if typ, _ := call(wire.MsgHello, hello); typ != wire.MsgWelcome {
		t.Fatalf("hello answered with 0x%02x", typ)
	}
	typ, id := call(wire.MsgPrepare, str("SELECT name FROM users WHERE id = ?"))
	if typ != wire.MsgStmt || len(id) != 4 {
		t.Fatalf("prepare answered with 0x%02x %x", typ, id)
	}
	exec := append(append([]byte{}, id...), 0) // an empty parameter row: fails in the engine, not the session
	if typ, body := call(wire.MsgExec, exec); typ != wire.MsgError || binary.BigEndian.Uint16(body) == wire.ErrCodeStmt {
		t.Fatalf("exec of a live statement answered with 0x%02x %x", typ, body)
	}
	if typ, _ := call(wire.MsgCloseStmt, id); typ != wire.MsgResult {
		t.Fatalf("close answered with 0x%02x", typ)
	}
	if typ, body := call(wire.MsgExec, exec); typ != wire.MsgError || binary.BigEndian.Uint16(body) != wire.ErrCodeStmt {
		t.Fatalf("exec of a closed statement answered with 0x%02x %x", typ, body)
	}
	if typ, body := call(wire.MsgCloseStmt, id[:2]); typ != wire.MsgError || binary.BigEndian.Uint16(body) != wire.ErrCodeProtocol {
		t.Fatalf("truncated close answered with 0x%02x %x", typ, body)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("session survived a malformed frame: %v", err)
	}
}
