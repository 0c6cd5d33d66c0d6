// Package locks is a golden package for the lockhold analyzer.
package locks

import (
	"sync"
	"time"
)

// remoteCall stands in for an RPC exchange; the test config lists it in
// Blocking, the way the real suite lists rpc.Client.CallContext.
func remoteCall() {}

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	wg sync.WaitGroup
}

// sleepUnderLock is the paradigm violation.
func (b *box) sleepUnderLock() {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want `blocking operation \(time\.Sleep\) while b\.mu is locked`
	b.mu.Unlock()
}

// sleepAfterUnlock releases first: clean.
func (b *box) sleepAfterUnlock() {
	b.mu.Lock()
	b.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// deferredUnlockHolds: a deferred Unlock keeps the lock to function end,
// so the receive below still runs under it.
func (b *box) deferredUnlockHolds() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-b.ch // want `blocking operation \(channel receive\) while b\.mu is locked`
}

// sendUnderReadLock: read locks block writers just the same.
func (b *box) sendUnderReadLock() {
	b.rw.RLock()
	b.ch <- 1 // want `blocking operation \(channel send\) while b\.rw is locked`
	b.rw.RUnlock()
}

// selectUnderLock: a select with no default can park the goroutine.
func (b *box) selectUnderLock() {
	b.mu.Lock()
	select { // want `blocking operation \(select with no default clause\) while b\.mu is locked`
	case v := <-b.ch:
		_ = v
	}
	b.mu.Unlock()
}

// selectWithDefault never parks: clean.
func (b *box) selectWithDefault() {
	b.mu.Lock()
	select {
	case v := <-b.ch:
		_ = v
	default:
	}
	b.mu.Unlock()
}

// waitUnderLock: WaitGroup.Wait is a built-in blocking call.
func (b *box) waitUnderLock() {
	b.mu.Lock()
	b.wg.Wait() // want `blocking operation \(\(\*sync\.WaitGroup\)\.Wait\) while b\.mu is locked`
	b.mu.Unlock()
}

// rpcUnderLock: the configured Blocking list extends the built-ins.
func (b *box) rpcUnderLock() {
	b.mu.Lock()
	remoteCall() // want `blocking operation .*remoteCall\) while b\.mu is locked`
	b.mu.Unlock()
}

// goroutineDoesNotHold: the spawned goroutine runs without the caller's
// locks, so its sleep is not a violation.
func (b *box) goroutineDoesNotHold() {
	b.mu.Lock()
	go func() {
		time.Sleep(time.Millisecond)
	}()
	b.mu.Unlock()
}

// funcLitNotDescended: a literal assigned under the lock runs later (or
// elsewhere); its body is out of scope for this intra-procedural pass.
func (b *box) funcLitNotDescended() func() {
	b.mu.Lock()
	f := func() { b.wg.Wait() }
	b.mu.Unlock()
	return f
}

// branchStateIsLocal: a lock taken inside one branch does not poison the
// statements after the branch.
func (b *box) branchStateIsLocal(cond bool) {
	if cond {
		b.mu.Lock()
		b.mu.Unlock()
	}
	time.Sleep(time.Millisecond)
}

// allowed carries the sanctioned annotation: the author judged the hold
// acceptable and said why.
func (b *box) allowed() {
	b.mu.Lock()
	//lint:allow lockhold golden test of the suppression path
	time.Sleep(time.Millisecond)
	b.mu.Unlock()
}
