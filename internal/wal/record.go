// Package wal implements the durability substrate the paper inherits
// from H-Store (§3.1) and extends for streaming (§3.2.5): a command log
// that records committed stored-procedure invocations (name plus input
// parameters, not data pages), fsynced on every commit or never, plus
// snapshot checkpoint files. The log is sharded one file per partition
// (LogSet): each execution site logs to its own file, and a shared
// lock-free commit sequence stamps every record so the shards merge
// back into total commit order.
//
// The streaming recovery modes differ only in *which* transactions get
// logged: strong recovery logs every TE, weak recovery logs border TEs
// only (upstream backup). That choice lives in the recovery package;
// the log itself just persists what it is given.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sstore/internal/types"
)

// RecordKind classifies logged transactions for recovery replay.
type RecordKind uint8

const (
	// KindOLTP is an ordinary client-invoked transaction.
	KindOLTP RecordKind = iota
	// KindBorder is a streaming TE that ingests a batch from outside
	// the system (§2.1).
	KindBorder
	// KindInterior is a streaming TE triggered by an upstream TE.
	// Interior records exist only under strong recovery.
	KindInterior
	// KindHandoff is a streaming TE whose input batch arrived from
	// another node (a cross-node interior hand-off). Unlike KindInterior
	// it carries the batch rows — the sending node's stream table, the
	// usual upstream backup, lives in a different failure domain — so
	// hand-off records are logged under weak recovery too, and replay
	// re-ingests the batch locally like a border record.
	KindHandoff
)

// String names the kind.
func (k RecordKind) String() string {
	switch k {
	case KindOLTP:
		return "oltp"
	case KindBorder:
		return "border"
	case KindInterior:
		return "interior"
	case KindHandoff:
		return "handoff"
	default:
		return fmt.Sprintf("RecordKind(%d)", uint8(k))
	}
}

// Record is one command-log entry: a committed transaction execution
// identified by its stored procedure and input parameters, exactly the
// information needed to re-execute it (§3.1).
type Record struct {
	// LSN is the log sequence number, assigned at append time from
	// the engine-wide commit sequence (shared by every partition's
	// log through a LogSet): records replay in LSN order, which is
	// total commit order even when the log is sharded one file per
	// partition.
	LSN uint64
	// Kind classifies the TE for recovery-mode filtering.
	Kind RecordKind
	// Partition is the partition that executed the TE.
	Partition int
	// SP is the stored procedure name.
	SP string
	// BatchID is the atomic batch processed by a streaming TE, or
	// zero for OLTP.
	BatchID int64
	// Params are the invocation's input parameters.
	Params types.Row
	// Batch holds the atomic batch's tuples for border and hand-off
	// TEs: the upstream-backup data needed to re-ingest the batch on
	// replay (§3.2.5). Empty for interior and OLTP records.
	Batch []types.Row
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encode appends the record's framed encoding to buf:
// [u32 payload-len][payload][u32 crc32c(payload)].
func (r *Record) encode(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	p := len(buf)
	buf = binary.AppendUvarint(buf, r.LSN)
	buf = append(buf, byte(r.Kind))
	buf = binary.AppendUvarint(buf, uint64(r.Partition))
	buf = binary.AppendVarint(buf, r.BatchID)
	buf = binary.AppendUvarint(buf, uint64(len(r.SP)))
	buf = append(buf, r.SP...)
	buf = types.EncodeRow(buf, r.Params)
	buf = binary.AppendUvarint(buf, uint64(len(r.Batch)))
	for _, row := range r.Batch {
		buf = types.EncodeRow(buf, row)
	}
	payload := buf[p:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
}

// decodePayload decodes one record's payload (the bytes between the
// length prefix and the CRC, which the caller has already verified).
// A malformed payload returns errTorn, which readers treat as
// end-of-log (torn tail after a crash).
var errTorn = fmt.Errorf("wal: torn or corrupt record")

func decodePayload(payload []byte) (*Record, error) {
	r := &Record{}
	n := 0
	lsn, m := binary.Uvarint(payload[n:])
	if m <= 0 {
		return nil, errTorn
	}
	n += m
	r.LSN = lsn
	if n >= len(payload) {
		return nil, errTorn
	}
	r.Kind = RecordKind(payload[n])
	n++
	part, m := binary.Uvarint(payload[n:])
	if m <= 0 {
		return nil, errTorn
	}
	n += m
	r.Partition = int(part)
	batch, m := binary.Varint(payload[n:])
	if m <= 0 {
		return nil, errTorn
	}
	n += m
	r.BatchID = batch
	splen, m := binary.Uvarint(payload[n:])
	if m <= 0 || uint64(len(payload)-n-m) < splen {
		return nil, errTorn
	}
	n += m
	r.SP = string(payload[n : n+int(splen)])
	n += int(splen)
	params, m, err := types.DecodeRow(payload[n:])
	if err != nil {
		return nil, errTorn
	}
	n += m
	r.Params = params
	count, m := binary.Uvarint(payload[n:])
	if m <= 0 {
		return nil, errTorn
	}
	n += m
	for i := uint64(0); i < count; i++ {
		row, m, err := types.DecodeRow(payload[n:])
		if err != nil {
			return nil, errTorn
		}
		n += m
		r.Batch = append(r.Batch, row)
	}
	return r, nil
}
