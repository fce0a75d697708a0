// Package wal implements the platform's durability subsystem: a write-ahead
// log with binary frame encoding, a group-commit flush pipeline, fuzzy
// checkpoint support, and a recovery scanner that detects and truncates torn
// tails.
//
// The paper's recovery story (Section 4.3, Figures 8-9) re-creates a lost
// replica with a full dump-and-copy because the underlying MySQL redo log is
// assumed but never modeled. This package supplies that missing layer for the
// embedded engines in internal/sqldb: every write statement is logged, as the
// text it ran as plus its parameters, before its transaction commits, the
// commit record is forced to the log (one simulated-fsync flush shared by all
// concurrently committing transactions) before locks are released, and a
// restarted machine rebuilds its state from the last complete checkpoint plus
// the log tail. Recovery cost becomes
// proportional to the log tail instead of the database size, which is what
// lets the cluster controller choose a fast log-replay recovery path over the
// paper's full Algorithm-1 copy.
//
// Frame format (all integers little-endian):
//
//	frame   := length(uint32) crc(uint32) payload
//	payload := type(uint8) lsn(uvarint) txn(uvarint) gid(uvarint)
//	           db(string) table(string) data(bytes)
//	string  := len(uvarint) bytes
//	bytes   := len(uvarint) bytes
//
// length counts payload bytes only; crc is the IEEE CRC32 of the payload.
// lsn is the byte offset of the frame's first length byte — a frame knows
// where it was written, so a frame replayed at the wrong offset (for example
// a duplicated final frame after a partial block rewrite) is detected and the
// tail is truncated there.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// RecordType identifies what a log record describes.
type RecordType uint8

// Record types. Begin/Statement/Prepare/Commit/Abort frames carry the
// transactional redo stream; CreateDB/DropDB frames log engine-level
// namespace changes (auto-committed, like DDL); the three checkpoint frame
// types bracket one fuzzy checkpoint; a RestoreTable frame is a whole-table
// redo record written outside any checkpoint.
const (
	// RecBegin marks the first write of a transaction.
	RecBegin RecordType = iota + 1
	// RecStatement carries one executed write statement as it ran: its
	// text and its bound parameters.
	RecStatement
	// RecPrepare marks a transaction entering the PREPARED state of 2PC;
	// a prepared transaction with no later commit/abort record is in doubt
	// and survives restart.
	RecPrepare
	// RecCommit makes a transaction durable; it is flushed before the
	// transaction's locks are released.
	RecCommit
	// RecAbort marks a rolled-back transaction.
	RecAbort
	// RecCreateDB logs creation of a database namespace.
	RecCreateDB
	// RecDropDB logs removal of a database namespace.
	RecDropDB
	// RecCheckpointBegin opens a fuzzy checkpoint.
	RecCheckpointBegin
	// RecCheckpointTable carries one table image captured under that
	// table's read lock, together with the log position the image is
	// consistent with.
	RecCheckpointTable
	// RecCheckpointEnd closes a checkpoint; only checkpoints whose end
	// frame made it to the log are used by recovery.
	RecCheckpointEnd
	// RecRestoreTable carries the image of one table installed in bulk (a
	// replica copy landing on this machine). Replay replaces the table with
	// the image; a later checkpoint that covers the table supersedes it.
	RecRestoreTable
)

// Record is one decoded log record. Txn is the engine-local transaction ID
// (0 for auto-committed records such as DDL); GID is the caller-assigned
// global transaction ID correlating 2PC branches across machines. DB and
// Table scope the record; Data carries the statement (text and parameters)
// or the table image, in the writer's encoding: the log does not read it.
type Record struct {
	Type  RecordType
	Txn   uint64
	GID   uint64
	DB    string
	Table string
	Data  []byte
}

// RecordAt is a record together with the LSN (byte offset) it was read from.
type RecordAt struct {
	LSN int64
	Record
}

// frameHeaderSize is the fixed prefix of every frame: length + crc.
const frameHeaderSize = 8

// maxFrameSize bounds a single frame; a decoded length beyond it is treated
// as corruption rather than an allocation request.
const maxFrameSize = 1 << 30

// crcTable is the polynomial used for frame checksums.
var crcTable = crc32.IEEETable

// AppendUvarint appends v to buf in unsigned varint encoding.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Uvarint decodes an unsigned varint from buf, returning the value and the
// remaining bytes.
func Uvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wal: bad uvarint")
	}
	return v, buf[n:], nil
}

// TakeString decodes a length-prefixed string.
func TakeString(buf []byte) (string, []byte, error) {
	b, rest, err := TakeBytes(buf)
	return string(b), rest, err
}

// TakeBytes decodes a length-prefixed byte slice (shared with the input).
func TakeBytes(buf []byte) ([]byte, []byte, error) {
	n, rest, err := Uvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("wal: truncated bytes field")
	}
	return rest[:n], rest[n:], nil
}

// encodeFrame appends the full frame (header + payload) for rec at the given
// LSN to buf. The record's data is rec.Data followed by the strings of rest.
func encodeFrame(buf []byte, lsn int64, rec Record, rest ...string) []byte {
	size := len(rec.Data)
	for _, s := range rest {
		size += len(s)
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	buf = append(buf, byte(rec.Type))
	buf = binary.AppendUvarint(buf, uint64(lsn))
	buf = binary.AppendUvarint(buf, rec.Txn)
	buf = binary.AppendUvarint(buf, rec.GID)
	buf = AppendString(buf, rec.DB)
	buf = AppendString(buf, rec.Table)
	buf = binary.AppendUvarint(buf, uint64(size))
	buf = append(slices.Grow(buf, size), rec.Data...)
	for _, s := range rest {
		buf = append(buf, s...)
	}
	payload := buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// decodeFrame decodes one frame starting at data[off], whose true offset in
// the log is lsn. It returns the record and the offset just past the frame.
// Any mismatch — short header, short payload, CRC failure, or a self-LSN
// that disagrees with the frame's position — is reported as an error; the
// caller treats the error position as the log's torn tail.
func decodeFrame(data []byte, off int64) (Record, int64, error) {
	rec, rest, end, err := decodeHead(data, off)
	if err != nil {
		return rec, off, err
	}
	if rec.DB, rest, err = TakeString(rest); err != nil {
		return rec, off, err
	}
	if rec.Table, rest, err = TakeString(rest); err != nil {
		return rec, off, err
	}
	if rec.Data, _, err = TakeBytes(rest); err != nil {
		return rec, off, err
	}
	return rec, end, nil
}

// decodeHead checks the frame at data[off] as decodeFrame does and decodes
// the head of its record — type, transaction and GID — without allocating.
// It returns the rest of the payload and the offset just past the frame.
func decodeHead(data []byte, off int64) (rec Record, rest []byte, end int64, err error) {
	if int64(len(data))-off < frameHeaderSize {
		return rec, nil, off, fmt.Errorf("wal: truncated frame header at %d", off)
	}
	length := binary.LittleEndian.Uint32(data[off:])
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if length == 0 || length > maxFrameSize {
		return rec, nil, off, fmt.Errorf("wal: implausible frame length %d at %d", length, off)
	}
	end = off + frameHeaderSize + int64(length)
	if end > int64(len(data)) {
		return rec, nil, off, fmt.Errorf("wal: truncated frame payload at %d", off)
	}
	payload := data[off+frameHeaderSize : end]
	if crc32.Checksum(payload, crcTable) != crc {
		return rec, nil, off, fmt.Errorf("wal: CRC mismatch at %d", off)
	}
	rec.Type = RecordType(payload[0])
	selfLSN, rest, err := Uvarint(payload[1:])
	if err != nil {
		return rec, nil, off, err
	}
	if int64(selfLSN) != off {
		return rec, nil, off, fmt.Errorf("wal: frame at %d claims LSN %d (duplicated or displaced frame)", off, selfLSN)
	}
	if rec.Txn, rest, err = Uvarint(rest); err != nil {
		return rec, nil, off, err
	}
	rec.GID, rest, err = Uvarint(rest)
	return rec, rest, end, err
}

// Scan decodes every complete, checksummed frame in data. It returns the
// records in log order, the offset of the first byte that is not part of a
// valid frame (the good end), and whether bytes past the good end exist — a
// torn tail that recovery should truncate.
func Scan(data []byte) (recs []RecordAt, goodEnd int64, torn bool) {
	off := int64(0)
	for off < int64(len(data)) {
		rec, next, err := decodeFrame(data, off)
		if err != nil {
			return recs, off, true
		}
		recs = append(recs, RecordAt{LSN: off, Record: rec})
		off = next
	}
	return recs, off, false
}
