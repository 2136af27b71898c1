// Package spacesaving implements the Space Saving family (Metwally et al.,
// Algorithm 2) in the concrete forms the paper discusses:
//
//   - Heap ("SSH" for unit updates, "MHE" for weighted updates, §1.3.3 and
//     §1.3.5): a min-heap over the counters plus a hash index, the prior
//     state of the art for weighted streams that Figures 1-2 benchmark
//     against. O(log k) per update and nearly double the space of the MG
//     table.
//   - StreamSummary ("SSL", §1.3.3): the doubly-linked bucket list of
//     Metwally et al., O(1) per unit update but pointer-heavy; it does not
//     extend to weighted updates (§1.3.5), so it only offers Update(item).
//   - RTUC ("reduce to unit case", §1.3.5): SSL fed Δ unit updates per
//     weighted update, the semantic reference for the isomorphism tests.
//
// Estimates follow Algorithm 2: the counter value when assigned, and the
// minimum counter value otherwise, which makes every estimate an upper
// bound on the true frequency.
package spacesaving

import (
	"fmt"

	"repro/internal/hashmap"
)

// Heap is the min-heap implementation of Space Saving: SSH for unit
// updates, MHE (Min-Heap Extension) for weighted updates. The heap keeps
// the minimum counter at the root for O(1) access and O(log k) eviction;
// a linear-probing hash index maps items to heap positions, and is
// updated on every sift — the bookkeeping cost §1.3.3 charges SSH with.
type Heap struct {
	k       int
	values  []int64
	items   []int64
	index   *hashmap.Map // item -> heap position
	streamN int64
}

// NewHeap returns a Space Saving summary with k counters.
func NewHeap(k int, seed uint64) (*Heap, error) {
	if k < 1 {
		return nil, fmt.Errorf("spacesaving: k must be positive, got %d", k)
	}
	lg := hashmap.MinLgLength
	for int(float64(int(1)<<lg)*hashmap.LoadFactor) < k {
		lg++
	}
	if lg > hashmap.MaxLgLength {
		return nil, fmt.Errorf("spacesaving: k %d too large", k)
	}
	index, err := hashmap.New(lg, seed)
	if err != nil {
		return nil, err
	}
	return &Heap{
		k:      k,
		values: make([]int64, 0, k),
		items:  make([]int64, 0, k),
		index:  index,
	}, nil
}

// Name identifies the algorithm in harness output.
func (h *Heap) Name() string { return "MHE" }

// Update processes the weighted update (item, weight): increment if
// assigned; claim a free counter if one exists; otherwise overwrite the
// root (minimum) counter with c_min + weight and reassign it (lines 9-12
// of Algorithm 2 extended to weights, §1.3.5).
func (h *Heap) Update(item int64, weight int64) {
	if weight <= 0 {
		return
	}
	h.streamN += weight
	if pos, ok := h.index.Get(item); ok {
		h.values[pos] += weight
		h.siftDown(int(pos))
		return
	}
	if len(h.values) < h.k {
		h.values = append(h.values, weight)
		h.items = append(h.items, item)
		pos := len(h.values) - 1
		h.index.Adjust(item, int64(pos))
		h.siftUp(pos)
		return
	}
	// Evict the global minimum at the root.
	h.index.Delete(h.items[0])
	h.items[0] = item
	h.values[0] += weight
	h.index.Adjust(item, 0)
	h.siftDown(0)
}

// UpdateOne processes a unit update (SSH).
func (h *Heap) UpdateOne(item int64) { h.Update(item, 1) }

// Estimate returns the Algorithm 2 estimate: the counter when assigned,
// otherwise the minimum counter value (0 while counters remain free).
func (h *Heap) Estimate(item int64) int64 {
	if pos, ok := h.index.Get(item); ok {
		return h.values[pos]
	}
	return h.MinValue()
}

// LowerBound returns a certain lower bound: SS counters overestimate by at
// most the evicted minimum, but without per-counter error tracking the
// only certain lower bound for an assigned item is c(i) - c_min-at-
// assignment; the standard conservative bound exposed here is 0 for
// unassigned items and max(0, c(i) - MinValue()) for assigned ones.
func (h *Heap) LowerBound(item int64) int64 {
	if pos, ok := h.index.Get(item); ok {
		if v := h.values[pos] - h.MinValue(); v > 0 {
			return v
		}
	}
	return 0
}

// MinValue returns the smallest counter value, or 0 when counters remain
// unassigned.
func (h *Heap) MinValue() int64 {
	if len(h.values) < h.k {
		return 0
	}
	return h.values[0]
}

// MaximumError returns the summary-wide overestimation bound, the minimum
// counter value (every estimate satisfies fi <= f̂i <= fi + MinValue()).
func (h *Heap) MaximumError() int64 { return h.MinValue() }

// StreamWeight returns N.
func (h *Heap) StreamWeight() int64 { return h.streamN }

// NumActive returns the number of assigned counters.
func (h *Heap) NumActive() int { return len(h.values) }

// MaxCounters returns k.
func (h *Heap) MaxCounters() int { return h.k }

// SizeBytes returns the footprint: 16 bytes per heap entry plus the
// 18-bytes-per-slot hash index — the near-doubling relative to the plain
// MG table that §1.3.3 describes (≈40k vs 24k bytes at the same k).
func (h *Heap) SizeBytes() int {
	return 16*cap(h.values) + 18*h.index.Length()
}

// Range visits every assigned (item, counter) pair.
func (h *Heap) Range(fn func(item, value int64) bool) {
	for i := range h.values {
		if !fn(h.items[i], h.values[i]) {
			return
		}
	}
}

func (h *Heap) siftUp(pos int) {
	for pos > 0 {
		parent := (pos - 1) / 2
		if h.values[parent] <= h.values[pos] {
			return
		}
		h.swap(parent, pos)
		pos = parent
	}
}

func (h *Heap) siftDown(pos int) {
	n := len(h.values)
	for {
		l, r := 2*pos+1, 2*pos+2
		smallest := pos
		if l < n && h.values[l] < h.values[smallest] {
			smallest = l
		}
		if r < n && h.values[r] < h.values[smallest] {
			smallest = r
		}
		if smallest == pos {
			return
		}
		h.swap(pos, smallest)
		pos = smallest
	}
}

// swap exchanges heap entries i and j and rewrites their index entries.
// The index stores positions as counter values, so the rewrite is an
// adjust by the position delta — no delete/re-insert churn.
func (h *Heap) swap(i, j int) {
	h.values[i], h.values[j] = h.values[j], h.values[i]
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.index.Adjust(h.items[i], int64(i-j))
	h.index.Adjust(h.items[j], int64(j-i))
}
