package sig

import (
	"encoding/binary"
	"sync"
)

// memoSlots is the number of slots in each memo table. It is a power of
// two so the low bits of a key pick the slot. At 4,096 slots the three
// tables hold 768 KiB (32 B per verify slot, 96 B per sign slot, 64 B per
// key slot). Doubling it raised the isolated-sweep benchmark's peak RSS
// from ~11.5 to ~12.4 MiB on a 2-CPU linux/amd64 host, with no
// measurable gain in throughput.
const memoSlots = 4096

// memo is a fixed-size, direct-mapped table from a 32-byte SHA-256 key to
// a value: a colliding store simply evicts the slot's previous entry.
// Slots are inline and pointer-free, so a table is allocated once, adds
// no heap objects per entry and gives the garbage collector nothing to
// scan. An empty slot holds the zero key, which no SHA-256 output anyone
// can find equals.
//
// The tables are package state shared by every goroutine in the process.
// They memoize pure functions, so whatever they hold, every caller sees
// the results it would get without them.
type memo[V any] struct {
	mu    sync.Mutex
	slots [memoSlots]struct {
		key [32]byte
		val V
	}
}

func slotOf(key *[32]byte) uint64 {
	return binary.LittleEndian.Uint64(key[:8]) & (memoSlots - 1)
}

// load returns the value stored under key, if its slot still holds it.
func (m *memo[V]) load(key *[32]byte) (val V, ok bool) {
	s := &m.slots[slotOf(key)]
	m.mu.Lock()
	if s.key == *key {
		val, ok = s.val, true
	}
	m.mu.Unlock()
	return val, ok
}

// store puts val under key, evicting whatever shared its slot.
func (m *memo[V]) store(key *[32]byte, val V) {
	s := &m.slots[slotOf(key)]
	m.mu.Lock()
	s.key, s.val = *key, val
	m.mu.Unlock()
}

var (
	// verified holds the keys of (public key, message, signature)
	// triples that passed ed25519.Verify. Failures are never stored.
	verified memo[struct{}]
	// signed maps a (private key, message) pair to its signature.
	signed memo[[64]byte]
	// derived maps an Ed25519 seed to its public key.
	derived memo[[32]byte]
)
