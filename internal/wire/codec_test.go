package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"sdp/internal/obs"
	"sdp/internal/sqldb"
)

// echoBackend answers every statement with one row: its parameters.
type echoBackend struct{}

func (echoBackend) Authenticate(db, token string) error { return nil }
func (echoBackend) Begin(db string) (Txn, error)        { return echoBackend{}, nil }
func (echoBackend) Commit() error                       { return nil }
func (echoBackend) Rollback() error                     { return nil }

func (echoBackend) ExecStmt(sql string, stmt sqldb.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	cols := make([]string, len(params))
	for i := range cols {
		cols[i] = "p"
	}
	return &sqldb.Result{Cols: cols, Rows: []sqldb.Row{params}}, nil
}

// TestValuesRoundTripOverServer sends every corpus value to a server as a
// MsgExec parameter, one at a time and all in one list, and reads it back
// from the MsgResult row the server answers with, bit for bit.
func TestValuesRoundTripOverServer(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerConfig{Backend: echoBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(ClientConfig{Addr: srv.Addr(), Database: "app", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stmt, err := client.Prepare("SELECT ?")
	if err != nil {
		t.Fatal(err)
	}
	check := func(params []sqldb.Value) {
		t.Helper()
		res, err := stmt.Exec(params...)
		if err != nil {
			t.Fatalf("exec %v: %v", params, err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != len(params) {
			t.Fatalf("exec %v: got rows %v", params, res.Rows)
		}
		for i, v := range params {
			if got := res.Rows[0][i]; !sameValue(got, v) {
				t.Fatalf("value %d: got %#v want %#v", i, got, v)
			}
		}
	}
	for _, v := range valueCorpus() {
		check([]sqldb.Value{v})
	}
	check(valueCorpus())
}

// TestUnknownValueTypeKeepsSession sends a parameter with a type tag the row
// encoding does not define: the request is refused with ErrCodeProtocol, and
// the next request on the same session is served.
func TestUnknownValueTypeKeepsSession(t *testing.T) {
	gate := make(chan struct{})
	close(gate)
	client, _, _, served := pipeSession(t, gate)

	bad := sqldb.EncodeRow(appendString(nil, "SELECT ?"), sqldb.Row{{Typ: 9}})
	if _, err := writeFrame(client, MsgQuery, 2, bad); err != nil {
		t.Fatal(err)
	}
	f, _, err := readFrame(client)
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := decodeError(f.payload); f.typ != MsgError || f.seq != 2 || e == nil || e.Code != ErrCodeProtocol {
		t.Fatalf("unknown value type answered with type %#x seq %d %v", f.typ, f.seq, e)
	}
	if _, err := client.Write(queryBurst(t, 3, 1)); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, client, MsgResult, 3, 1)

	if _, err := writeFrame(client, MsgQuit, 4, nil); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, client, MsgBye, 4, 1)
	<-served
}

// protocolExamples reads the annotated hex dumps of PROTOCOL.md: each block
// opens with a "client → server  <name>" or "server → client  <name>" line,
// and every following line starts with the bytes it annotates.
func protocolExamples(t *testing.T) map[string][]byte {
	t.Helper()
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`^(?:client → server|server → client)\s+(.+)$`)
	hexByte := regexp.MustCompile(`^[0-9A-F]{2}$`)
	out := map[string][]byte{}
	name := ""
	sc := bufio.NewScanner(bytes.NewReader(doc))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if m := heading.FindStringSubmatch(line); m != nil {
			name = m[1]
			continue
		}
		if line == "" || strings.HasPrefix(line, "```") {
			name = ""
			continue
		}
		if name == "" {
			continue
		}
		for _, tok := range strings.Fields(line) {
			if !hexByte.MatchString(tok) {
				break
			}
			b, _ := hex.DecodeString(tok)
			out[name] = append(out[name], b...)
		}
	}
	return out
}

// TestProtocolExamples encodes the frames PROTOCOL.md spells out byte by byte
// and compares them with the document.
func TestProtocolExamples(t *testing.T) {
	frame := func(typ byte, seq uint64, payload []byte) []byte {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, typ, seq, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	exec := sqldb.EncodeRow(appendU32(nil, 1), sqldb.Row{sqldb.NewInt(1)})
	tc := obs.SpanContext{TraceID: 0x6b9f01c29e33a44a, SpanID: 0x2a1, Sampled: true}
	result, err := encodeResult(nil, &sqldb.Result{Cols: []string{"name"}, Rows: []sqldb.Row{{sqldb.NewText("ada")}}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{
		"MsgHello":         frame(MsgHello, 1, appendString(appendString([]byte{ProtoVersion}, "app"), "s3cret")),
		"MsgWelcome":       frame(MsgWelcome, 1, appendString([]byte{ProtoVersion}, "sdp/7")),
		"MsgStmt":          frame(MsgStmt, 2, appendU32(nil, 1)),
		"MsgExec":          frame(MsgExec, 3, exec),
		"MsgExec (traced)": frame(MsgExec, 3, appendTraceContext(exec, tc)),
		"MsgResult":        frame(MsgResult, 3, result),
	}
	got := protocolExamples(t)
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("PROTOCOL.md has no %s example", name)
		} else if !bytes.Equal(g, w) {
			t.Errorf("PROTOCOL.md's %s example is\n% X\nthe code emits\n% X", name, g, w)
		}
	}
}

// TestQueryTextDoesNotPinPayload sends MsgQuery requests whose one
// parameter is 4 MiB of text. Decoded strings share the request's payload,
// and the server keeps each new SQL text for good (statement cache, query
// stats), so it must keep a copy: a substring would hold every request's
// parameter for the server's lifetime.
func TestQueryTextDoesNotPinPayload(t *testing.T) {
	srv, _ := newTestServer(t)
	client := newTestClient(t, srv)
	big := sqldb.NewText(strings.Repeat("x", 4<<20))
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	const requests = 4
	for i := range requests {
		if _, err := client.Query(fmt.Sprintf("SELECT id FROM t WHERE v = ? AND id > %d", i), big); err != nil {
			t.Fatal(err)
		}
	}
	if grew := live() - before; grew > 2<<20 {
		t.Errorf("the live heap grew %d KiB over %d requests of a 4 MiB parameter", grew>>10, requests)
	}
	runtime.KeepAlive(big)
}
