package pe

import "testing"

// The //sstore:allocgate markers below pair with //sstore:nomalloc
// annotations; the allocgate analyzer fails the build if either side
// exists without the other.

//sstore:allocgate deque.pushBack
//sstore:allocgate deque.pushFront
//sstore:allocgate deque.popFront
func TestDequeOpsAllocFree(t *testing.T) {
	var d deque
	// Grow once to steady-state capacity; the gate measures the ring
	// operations, not the amortized growth.
	for i := 0; i < 16; i++ {
		d.pushBack(&task{})
	}
	for d.len() > 0 {
		d.popFront()
	}
	probe := &task{}
	if n := testing.AllocsPerRun(1000, func() {
		d.pushBack(probe)
		d.pushFront(probe)
		d.popFront()
		d.popFront()
	}); n != 0 {
		t.Fatalf("deque ops allocate %v/op at steady state; the scheduler queues every TE through them", n)
	}
}

// TestTaskPoolSteadyState: the task pool and the per-partition free
// lists make the per-TE struct traffic allocation-free once warm
// (ISSUE 8 layer 2). No allocgate marker — sync.Pool internals are not
// //sstore:nomalloc territory — but the behavior is load-bearing: every
// queued TE passes through getTask/putTask.
func TestTaskPoolSteadyState(t *testing.T) {
	putTask(getTask()) // warm the per-P pool cache
	if n := testing.AllocsPerRun(1000, func() {
		putTask(getTask())
	}); n != 0 {
		t.Fatalf("steady-state task get/put allocates %v/op", n)
	}
	p := &partition{}
	tx := p.beginTxn()
	_ = tx.Commit()
	p.recycleTxn(tx)
	pc := p.getProcCtx()
	p.recycleProcCtx(pc)
	ec := p.getECtx()
	p.recycleECtx(ec)
	if n := testing.AllocsPerRun(1000, func() {
		tx := p.beginTxn()
		_ = tx.Commit()
		p.recycleTxn(tx)
		p.recycleProcCtx(p.getProcCtx())
		p.recycleECtx(p.getECtx())
	}); n != 0 {
		t.Fatalf("steady-state txn/ctx recycling allocates %v/op", n)
	}
}
