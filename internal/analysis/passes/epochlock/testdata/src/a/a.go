// Fixture for the epochlock analyzer: the shard shape the real sharded
// backends use, with one flagged and one clean case per rule.
package a

import (
	"sync"
	"sync/atomic"
)

type table struct{ n int }

func (t *table) Mutate()   { t.n++ }
func (t *table) Read() int { return t.n }

type shard struct {
	mu sync.Mutex
	//freq:guardedBy(mu)
	//freq:epoch(epoch, Mutate)
	s     *table
	epoch atomic.Uint64
}

// Flagged: touching the guarded field with no lock in sight.
func Unlocked(sh *shard) int {
	return sh.s.Read() // want `access to guarded field sh\.s without holding sh\.mu`
}

// Flagged: mutating under the lock but forgetting the epoch bump.
func NoBump(sh *shard) {
	sh.mu.Lock()
	sh.s.Mutate() // want `mutation sh\.s\.Mutate under sh\.mu does not bump sh\.epoch\.Add\(1\)`
	sh.mu.Unlock()
}

// Flagged: the lock was already released when the field is read again.
func AfterUnlock(sh *shard) int {
	sh.mu.Lock()
	a := sh.s.Read()
	sh.mu.Unlock()
	return a + sh.s.Read() // want `access to guarded field sh\.s without holding sh\.mu`
}

// Flagged: calling a //freq:locked helper without holding its mutex.
func CallUnlocked(sh *shard) int {
	return sh.viewLocked() // want `call to //freq:locked\(mu\) function viewLocked without holding sh\.mu`
}

// Clean: bump after the mutation, same locked region.
func BumpAfter(sh *shard) {
	sh.mu.Lock()
	sh.s.Mutate()
	sh.epoch.Add(1)
	sh.mu.Unlock()
}

// Clean: bump before the mutation is just as good.
func BumpBefore(sh *shard) {
	sh.mu.Lock()
	sh.epoch.Add(1)
	sh.s.Mutate()
	sh.mu.Unlock()
}

// Clean: a deferred unlock keeps the region open to the end of the body.
func DeferRead(sh *shard) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.s.Read()
}

// Clean: the //freq:locked contract moves the proof to the call sites;
// receiver-rooted accesses inside are exempt.
//
//freq:locked(mu)
func (sh *shard) viewLocked() int {
	return sh.s.Read()
}

// Clean: calling the locked helper with the mutex held.
func CallLocked(sh *shard) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.viewLocked()
}

// Clean: a goroutine is its own lexical region and takes the lock itself.
func Background(sh *shard) {
	go func() {
		sh.mu.Lock()
		sh.epoch.Add(1)
		sh.s.Mutate()
		sh.mu.Unlock()
	}()
}

// ring is the same contract on a generic type: its method calls and
// field selections resolve to instantiated objects, which must still
// match the annotated declarations.
type ring[T any] struct {
	mu    sync.Mutex
	slots []T //freq:guardedBy(mu)
}

//freq:locked(mu)
func (r *ring[T]) headLocked() T { return r.slots[0] }

// Flagged: a generic type's locked helper called without its mutex.
func (r *ring[T]) Head() T {
	return r.headLocked() // want `call to //freq:locked\(mu\) function headLocked without holding r\.mu`
}

// Flagged: a generic type's guarded field touched without its mutex.
func (r *ring[T]) Len() int {
	return len(r.slots) // want `access to guarded field r\.slots without holding r\.mu`
}

// Flagged: the same call through a concrete instantiation.
func HeadOf(r *ring[int]) int {
	return r.headLocked() // want `call to //freq:locked\(mu\) function headLocked without holding r\.mu`
}

// Clean: the locked helper called with the mutex held.
func (r *ring[T]) LockedHead() T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.headLocked()
}
