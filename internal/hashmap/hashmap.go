// Package hashmap implements the open-addressing counter table of §2.3.3:
// linear probing over parallel arrays of keys, values, and 16-bit "state"
// variables, where a state of 0 marks an empty cell and a positive state is
// the probe distance (plus one) of the stored key from its preferred cell.
//
// The table length L is a power of two and the supported counter budget is
// k = loadFactor * L (the paper uses L ≈ 4k/3, i.e. a 3/4 load factor).
// Beyond ordinary lookup/adjust, the table supports the operation the
// frequent-items algorithms live on: "decrement every value by c* and purge
// the non-positive counters", done in place by one forward pass that moves
// each survivor at most once, into the layout per-key backward-shift
// deletion would leave, so a purge never allocates — the first of the two
// Algorithm-3 disadvantages §2.2 sets out to remove.
package hashmap

import (
	"fmt"

	"repro/internal/xrand"
)

// MinLgLength is the smallest supported table size (2^3 = 8 slots).
const MinLgLength = 3

// MaxLgLength caps the table at 2^26 slots (~50M counters); the 16-bit
// state field comfortably covers probe distances at 3/4 load far beyond
// this size (§2.3.3 quotes < 10^-250 overflow probability at k ≤ 2^32).
const MaxLgLength = 26

// LoadFactor is the fraction of the table that may hold active counters.
// §2.3.3: L ≈ 4k/3, i.e. k = (3/4)·L.
const LoadFactor = 0.75

// Map is the linear-probing counter table. It is not safe for concurrent
// use; the sketches that embed it document the same.
type Map struct {
	lgLength  int
	length    int
	mask      uint64
	capacity  int // LoadFactor * length
	numActive int
	seed      uint64
	keys      []int64
	values    []int64
	states    []uint16
	// sink receives the XOR of the state cells the write kernels'
	// hash-ahead stages touch, so the compiler cannot eliminate the
	// warming loads. It lives on the Map — written only by mutating
	// kernels, which the caller already serializes — rather than in a
	// global, which concurrent shards would race on.
	sink uint16
}

// New returns a table with 2^lgLength slots hashing with the given seed,
// at the paper's 3/4 load factor. Two maps with different seeds place the
// same keys independently, which is what the §3.2 merge note asks of
// summaries that will be merged.
func New(lgLength int, seed uint64) (*Map, error) {
	return NewWithLoadFactor(lgLength, seed, LoadFactor)
}

// NewWithLoadFactor returns a table with an explicit load factor in
// (0, 1), the knob behind the §2.3.3 choice L ≈ 4k/3. Exposed for the
// load-factor ablation bench; the sketches always use LoadFactor.
func NewWithLoadFactor(lgLength int, seed uint64, load float64) (*Map, error) {
	if lgLength < MinLgLength || lgLength > MaxLgLength {
		return nil, fmt.Errorf("hashmap: lgLength %d outside [%d, %d]", lgLength, MinLgLength, MaxLgLength)
	}
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("hashmap: load factor %v outside (0, 1)", load)
	}
	length := 1 << lgLength
	capacity := int(float64(length) * load)
	if capacity < 1 {
		capacity = 1
	}
	return &Map{
		lgLength: lgLength,
		length:   length,
		mask:     uint64(length - 1),
		capacity: capacity,
		seed:     seed,
		keys:     make([]int64, length),
		values:   make([]int64, length),
		states:   make([]uint16, length),
	}, nil
}

// LgLength returns log2 of the table length.
func (m *Map) LgLength() int { return m.lgLength }

// Length returns the number of slots.
func (m *Map) Length() int { return m.length }

// Capacity returns the counter budget k = LoadFactor * Length.
func (m *Map) Capacity() int { return m.capacity }

// NumActive returns the number of assigned counters.
func (m *Map) NumActive() int { return m.numActive }

// Seed returns the hash seed.
func (m *Map) Seed() uint64 { return m.seed }

func (m *Map) hash(key int64) uint64 {
	return xrand.Mix64(uint64(key) + m.seed)
}

// Get returns the counter value for key and whether it is assigned.
//
//freq:noalloc
func (m *Map) Get(key int64) (int64, bool) {
	i := m.hash(key) & m.mask
	// Plain linear probing: scan forward until the key or an empty cell.
	for m.states[i] != 0 {
		if m.keys[i] == key {
			return m.values[i], true
		}
		i = (i + 1) & m.mask
	}
	return 0, false
}

// Adjust adds delta to key's counter, inserting the key with value delta if
// it is not assigned. It reports whether a new counter was assigned.
// The caller must leave at least one empty slot in the table: Adjust panics
// if an insert would fill the last slot, since lookups would then never
// terminate. The sketches enforce NumActive <= Capacity (+1 transiently)
// which keeps the table at most ~3/4 full.
//
//freq:noalloc
func (m *Map) Adjust(key int64, delta int64) bool {
	i := m.hash(key) & m.mask
	d := uint16(1)
	for m.states[i] != 0 {
		if m.keys[i] == key {
			m.values[i] += delta
			return false
		}
		i = (i + 1) & m.mask
		d++
		if d == 0 {
			// Probe distance overflowed 16 bits. §2.3.3 computes this has
			// probability < 10^-250 at 3/4 load; reaching it means the
			// caller broke the load-factor contract.
			panic("hashmap: probe distance exceeds 16-bit state")
		}
	}
	if m.numActive+1 >= m.length {
		panic("hashmap: table full")
	}
	m.keys[i] = key
	m.values[i] = delta
	m.states[i] = d
	m.numActive++
	return true
}

// Pair is one weighted update for the bulk entry points, laid out so a
// batch reads one cache line per update instead of one per parallel
// array.
type Pair struct {
	Key   int64
	Value int64
}

// probeWindow is the depth of the hash-ahead stage of the bulk kernels:
// while probing for key i, the home slot of key i+probeWindow is already
// computed and its state cell touched. Successive probe sequences then
// overlap in the memory system instead of serializing hash→miss→hash→miss
// (§2.3.3's premise is that the table scan, i.e. memory, is the
// bottleneck — the window keeps several misses in flight). Eight keeps the
// ring in registers and is deep enough to cover a main-memory load.
const probeWindow = 8

// AdjustPairs applies Adjust(p.Key, p.Value) for every pair in a single
// tight loop — the bulk entry point behind the buffered writer's flush.
// Pairs with Value 0 are skipped without inserting their key; the caller
// must leave enough headroom that the table never fills, which the
// sketches' NumActive <= Capacity contract guarantees. The probe body is
// duplicated from Adjust rather than shared: the Go inliner refuses
// functions with loops, and a per-pair call would cost what batching
// saves. The loop is software-pipelined with a probeWindow-deep
// hash-ahead stage.
//
//freq:noalloc
func (m *Map) AdjustPairs(pairs []Pair) {
	n := len(pairs)
	if n == 0 {
		return
	}
	var homes [probeWindow]uint64
	var warm uint16
	for i := 0; i < n && i < probeWindow; i++ {
		h := m.hash(pairs[i].Key) & m.mask
		homes[i] = h
		warm ^= m.states[h]
	}
	for i := 0; i < n; i++ {
		j := homes[i&(probeWindow-1)]
		if ahead := i + probeWindow; ahead < n {
			h := m.hash(pairs[ahead].Key) & m.mask
			homes[ahead&(probeWindow-1)] = h
			warm ^= m.states[h]
		}
		p := pairs[i]
		if p.Value == 0 {
			continue
		}
		// d doubles as the found flag: 0 is unreachable as a probe
		// distance (the overflow guard panics first).
		d := uint16(1)
		for m.states[j] != 0 {
			if m.keys[j] == p.Key {
				m.values[j] += p.Value
				d = 0
				break
			}
			j = (j + 1) & m.mask
			d++
			if d == 0 {
				panic("hashmap: probe distance exceeds 16-bit state")
			}
		}
		if d == 0 {
			continue
		}
		if m.numActive+1 >= m.length {
			panic("hashmap: table full")
		}
		m.keys[j] = p.Key
		m.values[j] = p.Value
		m.states[j] = d
		m.numActive++
	}
	m.sink = warm
}

// AdjustBatch applies Adjust(keys[i], values[i]) for every i in a single
// tight loop over the parallel arrays — the bulk-update entry point the
// batched sketch ingestion path runs on. A nil values slice means all
// deltas are 1; otherwise the slices must have equal length and values
// of 0 are skipped without inserting their key. The caller must leave
// enough headroom that the table never fills: as with Adjust, the
// sketches' NumActive <= Capacity contract guarantees that. The loop is
// software-pipelined with a probeWindow-deep hash-ahead stage.
//
//freq:noalloc
func (m *Map) AdjustBatch(keys, values []int64) {
	n := len(keys)
	if n == 0 {
		return
	}
	var homes [probeWindow]uint64
	var warm uint16
	for i := 0; i < n && i < probeWindow; i++ {
		h := m.hash(keys[i]) & m.mask
		homes[i] = h
		warm ^= m.states[h]
	}
	for i := 0; i < n; i++ {
		j := homes[i&(probeWindow-1)]
		if ahead := i + probeWindow; ahead < n {
			h := m.hash(keys[ahead]) & m.mask
			homes[ahead&(probeWindow-1)] = h
			warm ^= m.states[h]
		}
		key := keys[i]
		delta := int64(1)
		if values != nil {
			if delta = values[i]; delta == 0 {
				continue
			}
		}
		// d doubles as the found flag: 0 is unreachable as a probe
		// distance (the overflow guard panics first).
		d := uint16(1)
		for m.states[j] != 0 {
			if m.keys[j] == key {
				m.values[j] += delta
				d = 0
				break
			}
			j = (j + 1) & m.mask
			d++
			if d == 0 {
				panic("hashmap: probe distance exceeds 16-bit state")
			}
		}
		if d == 0 {
			continue
		}
		if m.numActive+1 >= m.length {
			panic("hashmap: table full")
		}
		m.keys[j] = key
		m.values[j] = delta
		m.states[j] = d
		m.numActive++
	}
	m.sink = warm
}

// GetBatch looks up every key, writing the counter value (or 0) to
// values[i] and, when found is non-nil, whether the key is assigned to
// found[i] — the batch read kernel behind EstimateBatch in the query
// layer. values (and found, if given) must be at least len(keys) long.
// Like the bulk write kernels it runs a probeWindow-deep hash-ahead
// stage, so a batch of cold lookups overlaps its cache misses instead of
// paying them one at a time. Unlike them, GetBatch never writes to the
// table or its scratch state (lookups cannot invalidate the prefetched
// cells, so each preloaded state seeds its probe directly): it is safe
// for concurrent readers of an immutable table, the shared-view read
// path.
//
//freq:noalloc
func (m *Map) GetBatch(keys []int64, values []int64, found []bool) {
	n := len(keys)
	if n == 0 {
		return
	}
	var homes [probeWindow]uint64
	var ahead [probeWindow]uint16
	for i := 0; i < n && i < probeWindow; i++ {
		h := m.hash(keys[i]) & m.mask
		homes[i] = h
		ahead[i] = m.states[h]
	}
	for i := 0; i < n; i++ {
		j := homes[i&(probeWindow-1)]
		st := ahead[i&(probeWindow-1)]
		if nxt := i + probeWindow; nxt < n {
			h := m.hash(keys[nxt]) & m.mask
			homes[nxt&(probeWindow-1)] = h
			ahead[nxt&(probeWindow-1)] = m.states[h]
		}
		key := keys[i]
		var v int64
		ok := false
		for st != 0 {
			if m.keys[j] == key {
				v = m.values[j]
				ok = true
				break
			}
			j = (j + 1) & m.mask
			st = m.states[j]
		}
		values[i] = v
		if found != nil {
			found[i] = ok
		}
	}
}

// InsertUnique assigns p.Value to p.Key for every pair, exploiting two
// caller guarantees the adjust kernels cannot assume: every key is
// distinct from each other AND from every key already in the table, and
// the table has headroom for all of them (InsertUnique panics up front
// otherwise). The probe loop therefore never loads the keys array — it
// scans only the dense 2-byte states array for an empty cell, with the
// same hash-ahead stage as the adjust kernels — and the found-check
// branch, the per-item fullness check, and the per-item numActive update
// all disappear. This is the O(k) direct kernel that grow, bulk merge,
// and bulk deserialize are built on; the row layout reads one cache line
// per pair.
//
// Placement is identical to an Adjust loop over the same sequence (both
// claim the first empty cell on the probe path), so callers that need
// byte-identical tables to a replay-based path get them for free.
// Violating the distinctness contract silently corrupts the table; use
// InsertUniqueChecked for untrusted input.
//
//freq:noalloc
func (m *Map) InsertUnique(pairs []Pair) {
	n := len(pairs)
	if n == 0 {
		return
	}
	if m.numActive+n >= m.length {
		panic("hashmap: InsertUnique would fill the table")
	}
	var homes [probeWindow]uint64
	var warm uint16
	for i := 0; i < n && i < probeWindow; i++ {
		h := m.hash(pairs[i].Key) & m.mask
		homes[i] = h
		warm ^= m.states[h]
	}
	for i := 0; i < n; i++ {
		j := homes[i&(probeWindow-1)]
		if ahead := i + probeWindow; ahead < n {
			h := m.hash(pairs[ahead].Key) & m.mask
			homes[ahead&(probeWindow-1)] = h
			warm ^= m.states[h]
		}
		d := uint16(1)
		for m.states[j] != 0 {
			j = (j + 1) & m.mask
			d++
			if d == 0 {
				panic("hashmap: probe distance exceeds 16-bit state")
			}
		}
		m.keys[j] = pairs[i].Key
		m.values[j] = pairs[i].Value
		m.states[j] = d
	}
	m.numActive += n
	m.sink = warm
}

// InsertUniqueChecked is InsertUnique for untrusted input: it keeps the
// caller's distinctness claim honest by comparing keys along the probe
// path, reporting the offending key instead of corrupting the table. On
// clean input it costs one key compare per probed slot over InsertUnique
// — cheap, since the probe path ends at the cell being written anyway —
// and saves a separate FindDuplicate pass. On failure the pairs before
// the duplicate remain inserted (numActive stays consistent); callers
// are expected to Reset.
//
//freq:noalloc
func (m *Map) InsertUniqueChecked(pairs []Pair) (int64, bool) {
	n := len(pairs)
	if n == 0 {
		return 0, true
	}
	if m.numActive+n >= m.length {
		panic("hashmap: InsertUniqueChecked would fill the table")
	}
	var homes [probeWindow]uint64
	var warm uint16
	for i := 0; i < n && i < probeWindow; i++ {
		h := m.hash(pairs[i].Key) & m.mask
		homes[i] = h
		warm ^= m.states[h]
	}
	for i := 0; i < n; i++ {
		j := homes[i&(probeWindow-1)]
		if ahead := i + probeWindow; ahead < n {
			h := m.hash(pairs[ahead].Key) & m.mask
			homes[ahead&(probeWindow-1)] = h
			warm ^= m.states[h]
		}
		key := pairs[i].Key
		d := uint16(1)
		for m.states[j] != 0 {
			if m.keys[j] == key {
				m.numActive += i
				m.sink = warm
				return key, false
			}
			j = (j + 1) & m.mask
			d++
			if d == 0 {
				panic("hashmap: probe distance exceeds 16-bit state")
			}
		}
		m.keys[j] = key
		m.values[j] = pairs[i].Value
		m.states[j] = d
	}
	m.numActive += n
	m.sink = warm
	return 0, true
}

// Reset empties the table and installs a new hash seed, retaining the
// allocated arrays — the reuse hook behind the alloc-free deserialization
// path.
func (m *Map) Reset(seed uint64) {
	m.seed = seed
	m.numActive = 0
	clear(m.states)
}

// Delete removes key from the table if present, compacting the probe run
// so that subsequent lookups remain correct. It reports whether the key
// was present.
func (m *Map) Delete(key int64) bool {
	i := m.hash(key) & m.mask
	for m.states[i] != 0 {
		if m.keys[i] == key {
			m.deleteSlot(int(i))
			return true
		}
		i = (i + 1) & m.mask
	}
	return false
}

// deleteSlot empties slot free and shifts subsequent run entries backward
// (toward their preferred cells) so no key becomes unreachable. An entry at
// slot j with probe distance dist(j) = states[j]-1 may move into the freed
// slot iff its preferred cell is at or before the freed slot in forward
// circular order, i.e. iff dist(j) >= (j - free) mod L.
func (m *Map) deleteSlot(free int) {
	m.states[free] = 0
	m.numActive--
	j := free
	for {
		j = (j + 1) & int(m.mask)
		s := m.states[j]
		if s == 0 {
			return
		}
		d := int(s) - 1
		gap := (j - free) & int(m.mask)
		if d >= gap {
			m.keys[free] = m.keys[j]
			m.values[free] = m.values[j]
			m.states[free] = uint16(d - gap + 1)
			m.states[j] = 0
			free = j
		}
	}
}

// DecrementAndPurge is the DecrementCounters body of Algorithm 4: it
// subtracts dec from every counter and removes those left <= 0, compacting
// each probe run in one forward pass (§2.3.3). The scan starts just past an
// empty slot, so no run wraps across its origin. A counter <= dec is
// emptied and becomes the newest hole. A survivor is decremented; if its
// home lies at or before the newest hole it moves once, to the first empty
// slot at or after its home, and its old slot becomes the newest hole.
// Each slot is read once and a move scans at most the survivor's probe
// distance, so a purge is O(L) and uses no memory outside the table.
//
// The pass re-inserts the survivors in scan order, so each lands where it
// would be had the purged keys never been inserted — the layout deleting
// them one at a time by backward shift (Knuth, TAOCP vol. 3 §6.4,
// Algorithm R) leaves too. Later samples, estimates and serialized bytes
// therefore do not depend on which of the two ran.
//
//freq:noalloc
func (m *Map) DecrementAndPurge(dec int64) {
	if m.numActive == 0 {
		return
	}
	start := 0
	for m.states[start] != 0 {
		start++ // an empty slot exists because load < 1 is enforced
	}
	lenMask := int(m.mask)
	hole := 0 // offset from start of the newest empty slot behind the scan
	for off := 1; off <= m.length; off++ {
		i := (start + off) & lenMask
		s := m.states[i]
		if s == 0 {
			hole = off
			continue
		}
		if m.values[i] <= dec {
			m.states[i] = 0
			m.numActive--
			hole = off
			continue
		}
		m.values[i] -= dec
		home := off - int(s) + 1
		if home > hole {
			continue
		}
		to := home
		for m.states[(start+to)&lenMask] != 0 {
			to++
		}
		j := (start + to) & lenMask
		m.keys[j], m.values[j], m.states[j] = m.keys[i], m.values[i], uint16(to-home+1)
		m.states[i] = 0
		hole = off
	}
}

// SampleValues fills buf with the values of uniformly random assigned
// counters (with replacement) and returns the number written, which is
// min(len(buf), NumActive). If NumActive <= len(buf) it instead copies
// every active value exactly once, so small summaries get the exact
// quantile rather than a sampled one.
func (m *Map) SampleValues(buf []int64, rng *xrand.SplitMix64) int {
	if m.numActive == 0 {
		return 0
	}
	if m.numActive <= len(buf) {
		n := 0
		for i, s := range m.states {
			if s != 0 {
				buf[n] = m.values[i]
				n++
			}
		}
		return n
	}
	// At 3/4 load a random slot is occupied with probability >= 3/4 - the
	// expected number of redraws per sample is < 4/3.
	for n := 0; n < len(buf); {
		i := rng.Uint64n(uint64(m.length))
		if m.states[i] != 0 {
			buf[n] = m.values[i]
			n++
		}
	}
	return len(buf)
}

// Range calls fn for every assigned (key, value) pair in table order,
// stopping early if fn returns false.
func (m *Map) Range(fn func(key, value int64) bool) {
	for i, s := range m.states {
		if s != 0 {
			if !fn(m.keys[i], m.values[i]) {
				return
			}
		}
	}
}

// RangeShuffled calls fn for every assigned pair, visiting slots from a
// random start with a random odd stride (odd strides are coprime to the
// power-of-two length, so every slot is visited exactly once). This is the
// cheap randomized iteration order the §3.2 note prescribes for merging,
// avoiding probe-run pile-up when two summaries share a hash function.
func (m *Map) RangeShuffled(rng *xrand.SplitMix64, fn func(key, value int64) bool) {
	start := rng.Uint64n(uint64(m.length))
	stride := rng.Uint64()<<1 | 1
	i := start
	for n := 0; n < m.length; n++ {
		j := i & m.mask
		if m.states[j] != 0 {
			if !fn(m.keys[j], m.values[j]) {
				return
			}
		}
		i += stride
	}
}

// AppendActive appends every assigned (key, value) pair to dst in table
// order and returns the extended slice — the gather half of the bulk
// engine (grow, merge, and serialization feed InsertUnique from it
// without a per-pair callback), emitting the row layout the bulk kernels
// consume.
//
//freq:noalloc
func (m *Map) AppendActive(dst []Pair) []Pair {
	for i, s := range m.states {
		if s != 0 {
			dst = append(dst, Pair{Key: m.keys[i], Value: m.values[i]})
		}
	}
	return dst
}

// AppendLargest appends the min(n, NumActive) assigned (key, value)
// pairs with the largest values to dst, in unspecified order, and
// returns the extended slice. One scan of the table keeps the best
// pairs so far as a min-heap at the end of dst: the first n counters
// fill it, and each later one is sifted in only if it beats the root.
// That test reads the value before the state, so the branch is nearly
// always not taken and predicts well (an empty slot keeps a stale value,
// so a value that passes still needs its state). Which of several equal
// values is kept is unspecified, but every pair left out has a value no
// larger than the smallest one returned. Nothing is sized from n beyond
// NumActive, so n may be a count a client sent.
//
//freq:noalloc
func (m *Map) AppendLargest(dst []Pair, n int) []Pair {
	n = min(n, m.numActive)
	if n <= 0 {
		return dst
	}
	if n == m.numActive {
		return m.AppendActive(dst)
	}
	base := len(dst)
	i := 0
	for ; len(dst)-base < n; i++ {
		if m.states[i] != 0 {
			dst = append(dst, Pair{Key: m.keys[i], Value: m.values[i]})
		}
	}
	h := dst[base:]
	for j := n/2 - 1; j >= 0; j-- {
		siftDownMin(h, j)
	}
	root := h[0].Value
	for ; i < len(m.values); i++ {
		if m.values[i] > root && m.states[i] != 0 {
			h[0] = Pair{Key: m.keys[i], Value: m.values[i]}
			siftDownMin(h, 0)
			root = h[0].Value
		}
	}
	return dst
}

// siftDownMin moves h[i] down until neither child holds a smaller
// value, restoring the min-heap below i.
//
//freq:noalloc
func siftDownMin(h []Pair, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].Value < h[c].Value {
			c++
		}
		if h[i].Value <= h[c].Value {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// ActiveValues appends the values of all assigned counters to dst and
// returns the extended slice.
//
//freq:noalloc
func (m *Map) ActiveValues(dst []int64) []int64 {
	for i, s := range m.states {
		if s != 0 {
			dst = append(dst, m.values[i])
		}
	}
	return dst
}

// SumValues returns the sum C of all assigned counter values.
func (m *Map) SumValues() int64 {
	var sum int64
	for i, s := range m.states {
		if s != 0 {
			sum += m.values[i]
		}
	}
	return sum
}

// MaxProbeDistance returns the largest probe distance of any assigned
// counter; §2.3.3's state-width argument says this stays far below 2^14
// at 3/4 load. Exposed for tests and diagnostics.
func (m *Map) MaxProbeDistance() int {
	maxD := 0
	for _, s := range m.states {
		if d := int(s) - 1; s != 0 && d > maxD {
			maxD = d
		}
	}
	return maxD
}

// CheckInvariants verifies the probing invariants: every state equals the
// key's true circular distance from its home slot plus one, every key is
// reachable from its home slot without crossing an empty cell, and
// numActive matches the occupied-cell count. It returns an error describing
// the first violation, or nil. Intended for tests.
func (m *Map) CheckInvariants() error {
	n := 0
	for i, s := range m.states {
		if s == 0 {
			continue
		}
		n++
		home := int(m.hash(m.keys[i]) & m.mask)
		gap := (i - home) & int(m.mask)
		if int(s)-1 != gap {
			return fmt.Errorf("slot %d: state %d but true distance %d", i, s, gap)
		}
		for j := home; j != i; j = (j + 1) & int(m.mask) {
			if m.states[j] == 0 {
				return fmt.Errorf("slot %d: empty cell %d inside probe run from home %d", i, j, home)
			}
		}
		if v, ok := m.Get(m.keys[i]); !ok || v != m.values[i] {
			return fmt.Errorf("slot %d: key %d not reachable via Get", i, m.keys[i])
		}
	}
	if n != m.numActive {
		return fmt.Errorf("numActive %d but %d occupied slots", m.numActive, n)
	}
	return nil
}
