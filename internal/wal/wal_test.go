package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"sdp/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: RecBegin, Txn: 1, GID: 99, DB: "bank"},
		{Type: RecStatement, Txn: 1, GID: 99, DB: "bank", Table: "accounts", Data: []byte("INSERT INTO accounts VALUES (1, 'a')")},
		{Type: RecCommit, Txn: 1, GID: 99, DB: "bank"},
		{Type: RecAbort, Txn: 2, DB: "bank"},
		{Type: RecPrepare, Txn: 3, GID: 7, DB: "bank"},
		{Type: RecCreateDB, DB: "other"},
		{Type: RecDropDB, DB: "other"},
		{Type: RecCheckpointBegin},
		{Type: RecCheckpointTable, DB: "bank", Table: "accounts", Data: bytes.Repeat([]byte{0xAB}, 1000)},
		{Type: RecCheckpointEnd},
		{Type: RecStatement, DB: "", Table: "", Data: nil}, // all-empty fields
	}
	var buf []byte
	var lsns []int64
	for _, r := range recs {
		lsns = append(lsns, int64(len(buf)))
		buf = encodeFrame(buf, int64(len(buf)), r)
	}
	got, goodEnd, torn := Scan(buf)
	if torn {
		t.Fatalf("clean log reported torn")
	}
	if goodEnd != int64(len(buf)) {
		t.Fatalf("goodEnd = %d, want %d", goodEnd, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i, g := range got {
		if g.LSN != lsns[i] {
			t.Errorf("record %d: LSN = %d, want %d", i, g.LSN, lsns[i])
		}
		w := recs[i]
		if g.Type != w.Type || g.Txn != w.Txn || g.GID != w.GID || g.DB != w.DB || g.Table != w.Table || !bytes.Equal(g.Data, w.Data) {
			t.Errorf("record %d: got %+v, want %+v", i, g.Record, w)
		}
	}
}

func TestScanTornTail(t *testing.T) {
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = encodeFrame(buf, int64(len(buf)), Record{Type: RecCommit, Txn: uint64(i + 1), DB: "db"})
	}
	whole := int64(len(buf))
	// Chop anywhere inside the final frame: the first four records survive.
	for cut := whole - 1; cut > whole-12; cut-- {
		recs, goodEnd, torn := Scan(buf[:cut])
		if !torn {
			t.Fatalf("cut at %d: torn not reported", cut)
		}
		if len(recs) != 4 {
			t.Fatalf("cut at %d: %d records survived, want 4", cut, len(recs))
		}
		if goodEnd <= 0 || goodEnd >= cut {
			t.Fatalf("cut at %d: goodEnd = %d", cut, goodEnd)
		}
	}
}

func TestScanCorruptTail(t *testing.T) {
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = encodeFrame(buf, int64(len(buf)), Record{Type: RecCommit, Txn: uint64(i + 1), DB: "db"})
	}
	// Flip a byte in the last frame's payload: CRC must reject it.
	bad := append([]byte{}, buf...)
	bad[len(bad)-1] ^= 0xFF
	recs, _, torn := Scan(bad)
	if !torn || len(recs) != 2 {
		t.Fatalf("corrupt tail: torn=%v records=%d, want torn=true records=2", torn, len(recs))
	}
}

func TestScanDuplicatedFrame(t *testing.T) {
	s := NewMemStore()
	l := New(s, Config{}, nil)
	for i := 0; i < 3; i++ {
		if _, err := l.AppendSync(Record{Type: RecCommit, Txn: uint64(i + 1), DB: "db"}); err != nil {
			t.Fatal(err)
		}
	}
	s.DuplicateLast()
	recs, torn, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// The duplicated frame sits at the wrong offset, so its self-LSN gives it
	// away; the three originals survive.
	if !torn || len(recs) != 3 {
		t.Fatalf("duplicated frame: torn=%v records=%d, want torn=true records=3", torn, len(recs))
	}
}

func TestRecoverRealignsAppendPosition(t *testing.T) {
	s := NewMemStore()
	l := New(s, Config{}, nil)
	if _, err := l.AppendSync(Record{Type: RecCommit, Txn: 1, DB: "db"}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: RecCommit, Txn: 2, DB: "db"}); err != nil {
		t.Fatal(err)
	}
	s.Crash(3) // unsynced record lost, 3 torn bytes survive
	recs, torn, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(recs) != 1 {
		t.Fatalf("after crash: torn=%v records=%d, want torn=true records=1", torn, len(recs))
	}
	// Appends continue cleanly from the truncated end.
	if _, err := l.AppendSync(Record{Type: RecCommit, Txn: 3, DB: "db"}); err != nil {
		t.Fatal(err)
	}
	recs, torn, err = l.Recover()
	if err != nil || torn {
		t.Fatalf("second recover: err=%v torn=%v", err, torn)
	}
	if len(recs) != 2 || recs[1].Txn != 3 {
		t.Fatalf("after re-append: %d records, want txns [1 3]", len(recs))
	}
}

func TestGroupCommitBatchesFlushes(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	l := New(NewMemStore(), Config{FlushLatency: 2_000_000}, m) // 2ms
	const committers = 16
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.AppendSync(Record{Type: RecCommit, Txn: uint64(i + 1), DB: "db"}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	flushes := m.Flushes.Value()
	if flushes == 0 || flushes >= committers {
		t.Fatalf("group commit: %d flushes for %d committers, want 1..%d", flushes, committers, committers-1)
	}
}

func TestNoGroupCommitFlushesPerCommitter(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	l := New(NewMemStore(), Config{NoGroupCommit: true}, m)
	const committers = 8
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.AppendSync(Record{Type: RecCommit, Txn: uint64(i + 1), DB: "db"}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if flushes := m.Flushes.Value(); flushes != committers {
		t.Fatalf("no group commit: %d flushes for %d committers, want %d", flushes, committers, committers)
	}
}

func TestMemStoreFailAfterStopsLog(t *testing.T) {
	s := NewMemStore()
	l := New(s, Config{}, nil)
	if _, err := l.AppendSync(Record{Type: RecCommit, Txn: 1, DB: "db"}); err != nil {
		t.Fatal(err)
	}
	s.SetFailAfter(s.Size() + 4) // next frame dies partway through
	if _, err := l.Append(Record{Type: RecCommit, Txn: 2, DB: "db"}); err == nil {
		t.Fatal("append past fault point succeeded")
	}
	// The error is sticky until recovery.
	if _, err := l.Append(Record{Type: RecCommit, Txn: 3, DB: "db"}); err == nil {
		t.Fatal("append after store failure succeeded")
	}
	s.SetFailAfter(-1)
	recs, torn, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(recs) != 1 || recs[0].Txn != 1 {
		t.Fatalf("recover after fault: torn=%v records=%d", torn, len(recs))
	}
}

// TestSealStopsAppends models the machine-crash sequence (engine closed,
// log sealed, unsynced tail truncated): a straggling goroutine holding the
// dead log must get ErrSealed rather than write a displaced frame into the
// store a successor log now owns.
func TestSealStopsAppends(t *testing.T) {
	s := NewMemStore()
	l := New(s, Config{}, nil)
	if _, err := l.AppendSync(Record{Type: RecCommit, Txn: 1, DB: "db"}); err != nil {
		t.Fatal(err)
	}
	// An appended-but-unsynced record is the pre-crash in-flight tail.
	if _, err := l.Append(Record{Type: RecCommit, Txn: 2, DB: "db"}); err != nil {
		t.Fatal(err)
	}
	l.Seal()
	s.Crash(0) // drop the unsynced tail, as Machine.fail does

	if _, err := l.Append(Record{Type: RecCommit, Txn: 3, DB: "db"}); !errors.Is(err, ErrSealed) {
		t.Fatalf("append on sealed log: err = %v, want ErrSealed", err)
	}
	if _, err := l.AppendSync(Record{Type: RecCommit, Txn: 4, DB: "db"}); !errors.Is(err, ErrSealed) {
		t.Fatalf("appendsync on sealed log: err = %v, want ErrSealed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrSealed) {
		t.Fatalf("sync on sealed log: err = %v, want ErrSealed", err)
	}

	// A successor log over the same store (the restarted engine) recovers
	// exactly the durable prefix and keeps working.
	l2 := New(s, Config{}, nil)
	recs, torn, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if torn || len(recs) != 1 || recs[0].Txn != 1 {
		t.Fatalf("recover after seal+crash: torn=%v records=%d", torn, len(recs))
	}
	if _, err := l2.AppendSync(Record{Type: RecCommit, Txn: 5, DB: "db"}); err != nil {
		t.Fatalf("successor log append: %v", err)
	}
}

// TestSealSerializesWithConcurrentAppends hammers a log with appenders
// while sealing it: once Seal returns, the store's length must never move
// again — no straggler writes a frame after the crash point.
func TestSealSerializesWithConcurrentAppends(t *testing.T) {
	s := NewMemStore()
	l := New(s, Config{}, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(1); ; i++ {
				if _, err := l.Append(Record{Type: RecCommit, Txn: i, DB: "db"}); err != nil {
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}
	l.Seal()
	sizeAtSeal := s.Size()
	close(stop)
	wg.Wait()
	if got := s.Size(); got != sizeAtSeal {
		t.Fatalf("store grew after Seal returned: %d -> %d", sizeAtSeal, got)
	}
}

// TestMemStoreAgainstFlatBuffer drives the chunked MemStore and a plain byte
// slice through the same random appends, syncs, truncations and crash hooks,
// with sizes chosen to land on, just before and well past chunk boundaries,
// and requires identical contents after every step.
func TestMemStoreAgainstFlatBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewMemStore()
	var flat []byte
	durable, lastOff := 0, 0
	sizes := []int{1, 17, memChunk - 1, memChunk, memChunk + 1, 2*memChunk + 300, 300_000}
	for step := 0; step < 100; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			p := make([]byte, sizes[rng.Intn(len(sizes))])
			rng.Read(p)
			off, err := s.Append(p)
			if err != nil || off != int64(len(flat)) {
				t.Fatalf("step %d: append at %d, err %v, want offset %d", step, off, err, len(flat))
			}
			lastOff = len(flat)
			flat = append(flat, p...)
		case op == 5:
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			durable = len(flat)
		case op == 6:
			keep := rng.Intn(len(flat) + 1)
			if err := s.Truncate(int64(keep)); err != nil {
				t.Fatal(err)
			}
			flat, durable, lastOff = flat[:keep], min(durable, keep), min(lastOff, keep)
		case op == 7:
			keep := min(durable+rng.Intn(3), len(flat))
			s.Crash(keep - durable)
			flat, durable, lastOff = flat[:keep], keep, min(lastOff, keep)
		case op == 8:
			s.DuplicateLast()
			flat = append(flat, flat[lastOff:]...)
			durable = len(flat)
		default:
			n := rng.Intn(memChunk + 2)
			keep := max(len(flat)-n, 0)
			s.Chop(n)
			flat, durable, lastOff = flat[:keep], keep, min(lastOff, keep)
		}
		got, err := s.Contents()
		if err != nil {
			t.Fatal(err)
		}
		if s.Size() != int64(len(flat)) || !bytes.Equal(got, flat) {
			t.Fatalf("step %d: store holds %d bytes, flat buffer %d, or contents differ", step, s.Size(), len(flat))
		}
	}
}

// TestMemStoreCutReleasesChunks checks that a cut clears the slots of the
// chunks it drops: a slot left behind the slice's length keeps its 1 MB chunk
// reachable until the log grows back past it.
func TestMemStoreCutReleasesChunks(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Append(make([]byte, 3*memChunk+memChunk/2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(0); err != nil {
		t.Fatal(err)
	}
	for i, c := range s.chunks[len(s.chunks):cap(s.chunks)] {
		if c != nil {
			t.Fatalf("slot %d past the store's %d chunks still holds a %d-byte chunk", len(s.chunks)+i, len(s.chunks), cap(c))
		}
	}
}

// TestAppendReusesFrameBuffer checks that frames encoded into the log's reused
// buffer reach the store intact, and that a buffer grown past maxKeptFrame by
// a table image is dropped after use.
func TestAppendReusesFrameBuffer(t *testing.T) {
	l := New(NewMemStore(), Config{}, nil)
	recs := []Record{
		{Type: RecStatement, Txn: 1, DB: "d", Table: "t", Data: []byte("INSERT INTO t VALUES (1)")},
		{Type: RecCheckpointTable, DB: "d", Table: "t", Data: bytes.Repeat([]byte{7}, 2*maxKeptFrame)},
		{Type: RecCommit, Txn: 1, DB: "d"},
	}
	for i, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if cap(l.frame) > maxKeptFrame || (i == 1) != (l.frame == nil) {
			t.Fatalf("after record %d the log keeps a %d-byte frame buffer", i, cap(l.frame))
		}
	}
	data, _ := l.store.Contents()
	got, _, torn := Scan(data)
	if torn || len(got) != len(recs) {
		t.Fatalf("scanned %d records (torn %v), want %d", len(got), torn, len(recs))
	}
	for i, r := range got {
		if r.Type != recs[i].Type || !bytes.Equal(r.Data, recs[i].Data) {
			t.Fatalf("record %d: %v %d bytes, want %v %d bytes", i, r.Type, len(r.Data), recs[i].Type, len(recs[i].Data))
		}
	}
}

// TestAppendWritesRestIntoFrame appends records whose data continues with
// rest strings — none, empty ones, and a table image's worth of rows past
// maxKeptFrame — and checks that Scan reads every frame back, checksummed,
// with rec.Data and the rest as one payload, and that each frame is the one
// encodeFrame writes for the joined data.
func TestAppendWritesRestIntoFrame(t *testing.T) {
	rows := make([]string, 3000)
	for i := range rows {
		rows[i] = string(bytes.Repeat([]byte{byte(i)}, 1+i%60))
	}
	cases := []struct {
		rec  Record
		rest []string
	}{
		{Record{Type: RecStatement, Txn: 1, DB: "d", Table: "t", Data: []byte("INSERT INTO t VALUES (1)")}, nil},
		{Record{Type: RecRestoreTable, DB: "d", Table: "t", Data: []byte{1, 't', 0}}, rows},
		{Record{Type: RecCheckpointTable, DB: "d", Table: "u"}, []string{"", "ab", "", "c"}},
		{Record{Type: RecCommit, Txn: 1, DB: "d"}, nil},
	}
	l := New(NewMemStore(), Config{}, nil)
	var want []byte
	for _, c := range cases {
		if _, err := l.AppendSync(c.rec, c.rest...); err != nil {
			t.Fatal(err)
		}
		joined := c.rec
		joined.Data = []byte(string(c.rec.Data) + strings.Join(c.rest, ""))
		want = encodeFrame(want, int64(len(want)), joined)
	}
	data, _ := l.store.Contents()
	if !bytes.Equal(data, want) {
		t.Fatalf("the log holds %d bytes, unlike the %d of frames encoded from joined data", len(data), len(want))
	}
	got, end, torn := Scan(data)
	if torn || end != int64(len(data)) || len(got) != len(cases) {
		t.Fatalf("scanned %d records to %d of %d bytes (torn %v), want %d", len(got), end, len(data), torn, len(cases))
	}
	for i, r := range got {
		c := cases[i]
		if r.Type != c.rec.Type || string(r.Data) != string(c.rec.Data)+strings.Join(c.rest, "") {
			t.Fatalf("record %d: %v with %d bytes of data, want %v with %d + %d rest strings", i, r.Type, len(r.Data), c.rec.Type, len(c.rec.Data), len(c.rest))
		}
	}
}

// recoverCorpus builds the logs FuzzRecover starts from: a clean log holding
// every record type, and that log torn, corrupted, duplicated at its tail and
// cut to nothing.
func recoverCorpus() [][]byte {
	var clean []byte
	for _, r := range []Record{
		{Type: RecCreateDB, DB: "bank"},
		{Type: RecBegin, Txn: 1, GID: 99, DB: "bank"},
		{Type: RecStatement, Txn: 1, GID: 99, DB: "bank", Table: "accounts", Data: []byte("INSERT INTO accounts VALUES (1, 2)")},
		{Type: RecPrepare, Txn: 1, GID: 99, DB: "bank"},
		{Type: RecCommit, Txn: 1, GID: 99, DB: "bank"},
		{Type: RecCheckpointBegin},
		{Type: RecCheckpointTable, DB: "bank", Table: "accounts", Data: bytes.Repeat([]byte{7}, 40)},
		{Type: RecCheckpointEnd},
		{Type: RecAbort, Txn: 2, GID: 100, DB: "bank"},
		{Type: RecRestoreTable, DB: "bank", Table: "t", Data: []byte{1, 2, 3}},
		{Type: RecDropDB, DB: "bank"},
	} {
		clean = encodeFrame(clean, int64(len(clean)), r)
	}
	corrupt := append([]byte{}, clean...)
	corrupt[len(corrupt)/2] ^= 0x5a
	last := encodeFrame(nil, 0, Record{Type: RecCommit, Txn: 3, GID: 101, DB: "bank"})
	dup := encodeFrame(append([]byte{}, clean...), int64(len(clean)), Record{Type: RecCommit, Txn: 3, GID: 101, DB: "bank"})
	dup = append(dup, dup[len(dup)-len(last):]...)
	return [][]byte{clean, clean[:len(clean)-5], corrupt, dup, {}, {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}}
}

// FuzzRecover gives a log arbitrary bytes as its store's contents and checks
// the recovery scan that engine restarts and the in-doubt resolver's commit
// lookup both stand on. Recover must not fail or panic; the records it keeps
// must tile the store's prefix frame by frame from offset 0, each at the LSN
// its frame claims; torn must be reported iff bytes past that prefix were
// cut, and the store must hold exactly the prefix afterwards; the records
// must survive a fresh encoding; a second Recover must find the same records
// and nothing torn; Records must agree with it; and an append after recovery
// must land at the prefix's end, where the next recovery finds it. The
// committed corpus (testdata/fuzz/FuzzRecover) runs as a plain test.
func FuzzRecover(f *testing.F) {
	for _, data := range recoverCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewMemStore()
		if _, err := s.Append(data); err != nil {
			t.Fatal(err)
		}
		l := New(s, Config{}, nil)
		recs, torn, err := l.Recover()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		end := int64(0)
		for i, r := range recs {
			if r.LSN != end {
				t.Fatalf("record %d at LSN %d, want %d", i, r.LSN, end)
			}
			end += frameHeaderSize + int64(binary.LittleEndian.Uint32(data[end:]))
		}
		if torn != (end < int64(len(data))) {
			t.Fatalf("torn = %v with %d of %d bytes kept", torn, end, len(data))
		}
		if kept, _ := s.Contents(); !bytes.Equal(kept, data[:end]) {
			t.Fatalf("store holds %d bytes after recovery, want the %d-byte prefix", len(kept), end)
		}
		var fresh []byte
		for _, r := range recs {
			fresh = encodeFrame(fresh, r.LSN, r.Record)
		}
		if again, _, _ := Scan(fresh); !sameRecords(again, recs) {
			t.Fatal("records changed through a fresh encoding")
		}
		again, tornAgain, err := l.Recover()
		if err != nil || tornAgain || !sameRecords(again, recs) {
			t.Fatalf("second Recover: err=%v torn=%v, %d records, want %d", err, tornAgain, len(again), len(recs))
		}
		for _, r := range recs {
			if found, err := l.Contains(r.Type, []uint64{r.GID}); err != nil || !found[0] {
				t.Fatalf("Contains(%v, %d) = %v, %v for a recovered record", r.Type, r.GID, found, err)
			}
		}
		absent := uint64(1 << 40)
		for _, r := range recs {
			if r.Type == RecCommit && r.GID >= absent && r.GID < 1<<63 {
				absent = r.GID + 1
			}
		}
		if found, _ := l.Contains(RecCommit, []uint64{absent}); found[0] {
			t.Fatalf("Contains found a commit of GID %d that no frame holds", absent)
		}
		// One scan answers every gid at once.
		gids := []uint64{absent}
		for _, r := range recs {
			if r.Type == RecCommit {
				gids = append(gids, r.GID)
			}
		}
		slices.Sort(gids)
		gids = slices.Compact(gids)
		found, err := l.Contains(RecCommit, gids)
		for i, gid := range gids {
			if err != nil || found[i] != (gid != absent) {
				t.Fatalf("Contains(%v) = %v, %v: want every commit found and %d not", gids, found, err, absent)
			}
		}
		next := Record{Type: RecCommit, Txn: 1, GID: 1 << 40, DB: "after"}
		if lsn, err := l.AppendSync(next); err != nil || lsn != end {
			t.Fatalf("append after recovery: lsn=%d err=%v, want lsn %d", lsn, err, end)
		}
		after, tornAfter, err := l.Recover()
		if err != nil || tornAfter || len(after) != len(recs)+1 || after[len(recs)].GID != next.GID {
			t.Fatalf("recovery after an append: err=%v torn=%v, %d records, want %d", err, tornAfter, len(after), len(recs)+1)
		}
	})
}

// sameRecords reports whether two scans found the same records at the same
// LSNs.
func sameRecords(a, b []RecordAt) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.LSN != y.LSN || x.Type != y.Type || x.Txn != y.Txn || x.GID != y.GID ||
			x.DB != y.DB || x.Table != y.Table || !bytes.Equal(x.Data, y.Data) {
			return false
		}
	}
	return true
}
