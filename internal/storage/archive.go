package storage

// This file is the disk-backed row heap of a Table: an archive table
// keeps its rows in a slotted page file behind a shared buffer pool
// instead of a Go map. Everything above the heap — version chains,
// mutation brackets, indexes, arrival order, tombstones — is identical
// between the memory and archive heaps; Table
// routes each heap access through liveRow/putRow/removeRow (table.go),
// which branch on t.arch.
//
// Only row locators (TID → block/slot) and installedAt stamps stay in
// RAM. installedAt is deliberately not persisted: task epochs are
// process-local and restart at zero, so a persisted stamp from a prior
// run would make restored rows invisible to pinned readers. Buffer-pool
// pins are strictly call-scoped — every method unpins before returning,
// so no frame is ever held across a task boundary.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sstore/internal/bufferpool"
	"sstore/internal/page"
	"sstore/internal/types"
)

// ArchiveSite is where a partition's archive tables live: the buffer
// pool they share (the partition's archive memory budget) and the
// directory holding their page files. Tag disambiguates partitions
// sharing a directory.
type ArchiveSite struct {
	Pool *bufferpool.Pool
	Dir  string
	Tag  string
}

// ArchivePagePath returns the live page-file path for an archive table.
func ArchivePagePath(dir, tag, name string) string {
	return filepath.Join(dir, fmt.Sprintf("archive.%s.%s.pages", tag, strings.ToLower(name)))
}

// recLoc is the RAM-resident locator for one archived row. The
// (block, slot) pair is the row's durable address; installedAt is the
// process-local version stamp (see the file comment).
type recLoc struct {
	block       page.BlockID
	slot        uint16
	installedAt uint64
}

// archHeap is an archive table's row heap: a page file plus the
// locator map. It is accessed only from inside the owning Table's
// mutation bracket or read latch, so it carries no lock of its own;
// the buffer pool below it is internally synchronized.
type archHeap struct {
	pool *bufferpool.Pool
	file *page.File
	loc  map[uint64]recLoc
	// fill is the block new records land on until it fills up. Dead
	// record space in earlier blocks is not reused (append-mostly
	// workload; a rewrite lands on the fill page).
	fill    page.BlockID
	hasFill bool
	// scratch is the reused record-encoding buffer.
	scratch []byte

	// pendingRestore/expectRows carry the snapshot stub's row count
	// from RestoreTable to ArchiveRestore for validation.
	pendingRestore bool
	expectRows     uint64
}

// NewArchiveTable creates a table whose heap lives in a fresh page
// file at the site. Archive tables are plain tables — never streams or
// windows.
func NewArchiveTable(name string, schema *types.Schema, site *ArchiveSite) (*Table, error) {
	if site == nil || site.Pool == nil || site.Dir == "" {
		return nil, fmt.Errorf("storage: archive table %s needs a buffer pool and directory", name)
	}
	f, err := page.Create(ArchivePagePath(site.Dir, site.Tag, name))
	if err != nil {
		return nil, err
	}
	t := NewTable(name, KindTable, schema)
	t.arch = &archHeap{pool: site.Pool, file: f, loc: make(map[uint64]recLoc)}
	return t, nil
}

// IsArchive reports whether the table's heap is disk-backed.
func (t *Table) IsArchive() bool { return t.arch != nil }

// appendArchRecord encodes a row as one page record:
//
//	tid:uvarint batch:varint staged:u8 row (types.EncodeRow)
//
// installedAt is intentionally absent — it lives in the locator.
func appendArchRecord(buf []byte, r storedRow) []byte {
	buf = binary.AppendUvarint(buf, r.meta.TID)
	buf = binary.AppendVarint(buf, r.meta.BatchID)
	if r.meta.Staged {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return types.EncodeRow(buf, r.data)
}

// decodeArchRecord decodes one page record. The returned row owns its
// values (DecodeRow copies), so it stays valid after the frame is
// unpinned. installedAt is left zero for the caller to fill in.
func decodeArchRecord(rec []byte) (storedRow, error) {
	var r storedRow
	tid, n := binary.Uvarint(rec)
	if n <= 0 {
		return r, fmt.Errorf("storage: archive record: truncated tid")
	}
	batch, m := binary.Varint(rec[n:])
	if m <= 0 {
		return r, fmt.Errorf("storage: archive record: truncated batch")
	}
	n += m
	if n >= len(rec) {
		return r, fmt.Errorf("storage: archive record: truncated staged flag")
	}
	staged := rec[n] == 1
	n++
	row, _, err := types.DecodeRow(rec[n:])
	if err != nil {
		return r, fmt.Errorf("storage: archive record: %w", err)
	}
	r.meta = TupleMeta{TID: tid, BatchID: batch, Staged: staged}
	r.data = row
	return r, nil
}

// get fetches the live image of tid, decoding a copy off the pinned
// page. Read failures past this point — an I/O error or a CRC mismatch
// on a block the engine wrote — have no recovery inside a running
// statement; the engine's failure model is crash-and-recover from the
// log, so get panics rather than silently dropping the row.
func (h *archHeap) get(tid uint64) (storedRow, bool) {
	l, ok := h.loc[tid]
	if !ok {
		var none storedRow
		return none, false
	}
	fr, err := h.pool.Pin(h.file, l.block)
	if err != nil {
		panic(fmt.Sprintf("storage: archive read %s block %d: %v", h.file.Path(), l.block, err))
	}
	r, derr := decodeArchRecord(fr.Page.Record(l.slot))
	h.pool.Unpin(fr, false)
	if derr != nil {
		panic(fmt.Sprintf("storage: archive %s block %d slot %d: %v", h.file.Path(), l.block, l.slot, derr))
	}
	r.installedAt = l.installedAt
	return r, true
}

// has reports locator presence without touching the pool.
func (h *archHeap) has(tid uint64) bool {
	_, ok := h.loc[tid]
	return ok
}

// put installs r as tid's live image: the old record (if any) is
// tombstoned on its page and the new encoding lands on the fill page.
func (h *archHeap) put(tid uint64, r storedRow) error {
	if old, ok := h.loc[tid]; ok {
		if err := h.deleteRec(old); err != nil {
			return err
		}
		delete(h.loc, tid)
	}
	h.scratch = appendArchRecord(h.scratch[:0], r)
	if len(h.scratch) > page.MaxRecord {
		return fmt.Errorf("storage: archive row of %d bytes exceeds page capacity (%d)", len(h.scratch), page.MaxRecord)
	}
	block, slot, err := h.insert(h.scratch)
	if err != nil {
		return err
	}
	h.loc[tid] = recLoc{block: block, slot: slot, installedAt: r.installedAt}
	return nil
}

// insert places rec on the fill page, allocating a fresh block when it
// is full (or when there is none yet).
func (h *archHeap) insert(rec []byte) (page.BlockID, uint16, error) {
	if h.hasFill {
		fr, err := h.pool.Pin(h.file, h.fill)
		if err != nil {
			return 0, 0, err
		}
		slot, ierr := fr.Page.InsertRecord(rec)
		if ierr == nil {
			h.pool.Unpin(fr, true)
			return h.fill, slot, nil
		}
		h.pool.Unpin(fr, false)
		if ierr != page.ErrPageFull {
			return 0, 0, ierr
		}
	}
	b, fr, err := h.pool.Append(h.file)
	if err != nil {
		return 0, 0, err
	}
	slot, ierr := fr.Page.InsertRecord(rec)
	h.pool.Unpin(fr, ierr == nil)
	if ierr != nil {
		return 0, 0, ierr
	}
	h.fill, h.hasFill = b, true
	return b, slot, nil
}

// remove drops tid's record and locator. Removing an absent tid is a
// no-op, matching map delete.
func (h *archHeap) remove(tid uint64) error {
	l, ok := h.loc[tid]
	if !ok {
		return nil
	}
	if err := h.deleteRec(l); err != nil {
		return err
	}
	delete(h.loc, tid)
	return nil
}

// deleteRec tombstones one record on its page.
func (h *archHeap) deleteRec(l recLoc) error {
	fr, err := h.pool.Pin(h.file, l.block)
	if err != nil {
		return err
	}
	derr := fr.Page.DeleteRecord(l.slot)
	h.pool.Unpin(fr, derr == nil)
	return derr
}

// clear empties the heap: resident frames are dropped without
// write-back and the page file is truncated.
func (h *archHeap) clear() error {
	h.pool.Invalidate(h.file)
	if err := h.file.Truncate(); err != nil {
		return err
	}
	h.loc = make(map[uint64]recLoc)
	h.hasFill = false
	return nil
}

// ArchiveCheckpoint flushes the table's dirty frames, syncs the page
// file, and copies it to dst (synced before rename-level durability is
// the caller's manifest protocol). The caller must have quiesced the
// partition — checkpoints run with every partition parked — so the
// file is stable for the copy.
func (t *Table) ArchiveCheckpoint(dst string) error {
	h := t.arch
	if h == nil {
		return fmt.Errorf("storage: checkpoint of non-archive table %s", t.name)
	}
	if err := h.pool.FlushFile(h.file); err != nil {
		return err
	}
	if err := h.file.Sync(); err != nil {
		return err
	}
	src, err := os.Open(h.file.Path())
	if err != nil {
		return err
	}
	defer src.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, src); err != nil {
		out.Close()
		return fmt.Errorf("storage: checkpoint %s: %w", t.name, err)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ArchiveRestore replaces the table's contents with the checkpointed
// page file at src. Every block is read through the CRC check, copied
// into the live file, and its live records re-registered; arrival
// order and indexes are rebuilt from the locators (TID assignment
// order is arrival order). installedAt restarts at zero — epochs are
// process-local. WAL replay then redoes logical mutations on top.
func (t *Table) ArchiveRestore(src string) error {
	h := t.arch
	if h == nil {
		return fmt.Errorf("storage: restore of non-archive table %s", t.name)
	}
	sf, err := page.Open(src)
	if err != nil {
		return err
	}
	defer sf.Close()
	if err := h.clear(); err != nil {
		return err
	}
	var pg page.Page
	var maxTID uint64
	for b := uint32(0); b < sf.Blocks(); b++ {
		if err := sf.ReadBlock(page.BlockID(b), &pg); err != nil {
			return fmt.Errorf("storage: restore %s: %w", t.name, err)
		}
		live := h.file.Allocate()
		if err := h.file.WriteBlock(live, &pg); err != nil {
			return err
		}
		for slot := uint16(0); slot < pg.NumSlots(); slot++ {
			rec := pg.Record(slot)
			if rec == nil {
				continue
			}
			r, derr := decodeArchRecord(rec)
			if derr != nil {
				return fmt.Errorf("storage: restore %s block %d slot %d: %w", t.name, b, slot, derr)
			}
			h.loc[r.meta.TID] = recLoc{block: page.BlockID(b), slot: slot}
			if r.meta.TID > maxTID {
				maxTID = r.meta.TID
			}
		}
	}
	if err := h.file.Sync(); err != nil {
		return err
	}
	if n := sf.Blocks(); n > 0 {
		h.fill, h.hasFill = page.BlockID(n-1), true
	}
	if h.pendingRestore && uint64(len(h.loc)) != h.expectRows {
		return fmt.Errorf("storage: restore %s: page file holds %d rows, snapshot recorded %d", t.name, len(h.loc), h.expectRows)
	}
	h.pendingRestore = false
	tids := make([]uint64, 0, len(h.loc))
	for tid := range h.loc {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	t.order = tids
	t.tombs = make(map[uint64]struct{})
	if maxTID > t.nextTID {
		t.nextTID = maxTID
	}
	for _, tid := range t.order {
		r, ok := h.get(tid)
		if !ok {
			continue
		}
		for _, idx := range t.indexes {
			if err := idx.Insert(t.extractKey(idx, r.data), tid); err != nil {
				return fmt.Errorf("storage: restore %s index %s: %w", t.name, idx.Name(), err)
			}
		}
	}
	return nil
}

// ArchiveAwaitingPages reports whether a snapshot stub was decoded for
// this table and the page-file restore has not happened yet.
func (t *Table) ArchiveAwaitingPages() bool {
	return t.arch != nil && t.arch.pendingRestore
}

// CloseArchive flushes and closes the table's page file. The table
// must not be used afterwards.
func (t *Table) CloseArchive() error {
	h := t.arch
	if h == nil {
		return nil
	}
	if err := h.pool.FlushFile(h.file); err != nil {
		h.file.Close()
		return err
	}
	h.pool.Invalidate(h.file)
	if err := h.file.Sync(); err != nil {
		h.file.Close()
		return err
	}
	return h.file.Close()
}
