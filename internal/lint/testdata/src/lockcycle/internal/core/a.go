// Package core is a lockorder cycle fixture: two functions whose
// acquisition orders oppose each other form a cycle in the global
// acquisition graph — the classic ABBA deadlock — reported on top of
// the per-site order violation. The cycle is reported once, at the
// edge that closes it from its first lock in key order
// (arrayState.writeMu), which is ab's.
package core

import "sync"

type arrayState struct {
	writeMu sync.Mutex
}

// manifest owns the store-wide commit latch.
type manifest struct {
	mu sync.Mutex
}

// commit latch before writeMu: the documented direction
func (man *manifest) ab(st *arrayState) {
	man.mu.Lock()
	st.writeMu.Lock() // want `lock-order cycle: writeMu -> manifest\.mu -> writeMu`
	st.writeMu.Unlock()
	man.mu.Unlock()
}

// writeMu before the commit latch: opposes ab, closing the cycle
func (man *manifest) ba(st *arrayState) {
	st.writeMu.Lock()
	man.mu.Lock() // want `acquires manifest\.mu while holding writeMu — violates the documented lock order`
	man.mu.Unlock()
	st.writeMu.Unlock()
}
