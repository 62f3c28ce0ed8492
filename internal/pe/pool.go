package pe

import (
	"sync"

	"sstore/internal/ee"
	"sstore/internal/txn"
)

// Hot-struct recycling (ISSUE 8, layer 2): steady-state ingest must not
// allocate a task, Txn, ExecCtx, or ProcCtx per transaction execution.
// Tasks travel across partitions (cross-partition dispatch hands a
// carrying task to another queue), so they recycle through one global
// sync.Pool and are returned by whichever partition retires them.
// Txn/ExecCtx/ProcCtx never leave their partition: they recycle through
// per-partition free lists touched only on the partition goroutine, so
// the lists need no locking.
//
// Deliberately NOT pooled: batch row slices and rows (they outlive the
// TE inside stream tables and the WAL), reply channels (the receiver
// side outlives the task), and Results (handed to the client).

var taskPool = sync.Pool{New: func() any { return new(task) }}

// getTask returns a zeroed task from the pool.
//
//sstore:pooled
func getTask() *task { return taskPool.Get().(*task) }

// putTask recycles a retired task. The caller must be the goroutine
// that retired it, after the reply (if any) was sent; nothing reachable
// from the engine may still reference it.
//
//sstore:pooled
func putTask(t *task) {
	*t = task{}
	taskPool.Put(t)
}

// maxFreeStructs bounds each per-partition free list; beyond it,
// retired structs fall back to the garbage collector.
const maxFreeStructs = 256

// beginTxn assigns the next transaction ID to a pooled (or fresh) Txn.
// Partition-goroutine only, like nextTxn itself.
func (p *partition) beginTxn() *txn.Txn {
	p.nextTxn++
	if n := len(p.txnFree) - 1; n >= 0 {
		tx := p.txnFree[n]
		p.txnFree[n] = nil
		p.txnFree = p.txnFree[:n]
		tx.Reset(p.nextTxn)
		return tx
	}
	return txn.New(p.nextTxn)
}

// recycleTxn returns a finished Txn to the free list. An active Txn is
// never recycled (it still owns undo state).
func (p *partition) recycleTxn(tx *txn.Txn) {
	if tx == nil || tx.Status() == txn.StatusActive {
		return
	}
	if len(p.txnFree) < maxFreeStructs {
		p.txnFree = append(p.txnFree, tx)
	}
}

func (p *partition) getECtx() *ee.ExecCtx {
	if n := len(p.ectxFree) - 1; n >= 0 {
		e := p.ectxFree[n]
		p.ectxFree[n] = nil
		p.ectxFree = p.ectxFree[:n]
		return e
	}
	return &ee.ExecCtx{}
}

func (p *partition) recycleECtx(e *ee.ExecCtx) {
	if e == nil {
		return
	}
	// Drop the TE's references (Txn, Allowed) but keep the appends
	// buffer; Reset reuses its capacity.
	e.Reset("", 0, nil, nil)
	if len(p.ectxFree) < maxFreeStructs {
		p.ectxFree = append(p.ectxFree, e)
	}
}

func (p *partition) getProcCtx() *ProcCtx {
	if n := len(p.pcFree) - 1; n >= 0 {
		pc := p.pcFree[n]
		p.pcFree[n] = nil
		p.pcFree = p.pcFree[:n]
		return pc
	}
	return &ProcCtx{}
}

func (p *partition) recycleProcCtx(pc *ProcCtx) {
	if pc == nil {
		return
	}
	*pc = ProcCtx{}
	if len(p.pcFree) < maxFreeStructs {
		p.pcFree = append(p.pcFree, pc)
	}
}
