// Package exact is the ground-truth oracle every accuracy experiment
// measures against: an exact frequency map with the derived statistics the
// paper's analysis uses — top-j frequencies, the residual tail weight
// N^res(j) of Lemma 2, and maximum estimate error over a summary.
package exact

import "sort"

// Counter tracks exact weighted frequencies. This is the "trivial
// solution" of §4.1, against which the sketches' 70x space advantage is
// computed.
type Counter struct {
	freqs   map[int64]int64
	streamN int64
}

// New returns an empty exact counter.
func New() *Counter {
	return &Counter{freqs: make(map[int64]int64)}
}

// Update adds weight to item's frequency.
func (c *Counter) Update(item int64, weight int64) {
	if weight <= 0 {
		return
	}
	c.freqs[item] += weight
	c.streamN += weight
}

// Freq returns the exact frequency of item.
func (c *Counter) Freq(item int64) int64 { return c.freqs[item] }

// StreamWeight returns N.
func (c *Counter) StreamWeight() int64 { return c.streamN }

// SizeBytes approximates the footprint of the exact solution at 40 bytes
// per distinct item (key, value, and map overhead), for the space-ratio
// comparison of §4.1.
func (c *Counter) SizeBytes() int { return 40 * len(c.freqs) }

// Item is an (item, frequency) pair.
type Item struct {
	Item int64
	Freq int64
}

// TopK returns the j most frequent items in descending frequency order
// (ties broken by item id). j larger than the item count returns all.
func (c *Counter) TopK(j int) []Item {
	all := make([]Item, 0, len(c.freqs))
	for item, f := range c.freqs {
		all = append(all, Item{item, f})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Freq != all[b].Freq {
			return all[a].Freq > all[b].Freq
		}
		return all[a].Item < all[b].Item
	})
	if j < len(all) {
		all = all[:j]
	}
	return all
}

// Residual returns N^res(j), the total weight minus the weight of the top
// j items (Lemma 2).
func (c *Counter) Residual(j int) int64 {
	top := c.TopK(j)
	res := c.streamN
	for _, it := range top {
		res -= it.Freq
	}
	return res
}

// Estimator is any summary answering point queries; all algorithms in
// this repository satisfy it.
type Estimator interface {
	Estimate(item int64) int64
}

// BatchEstimator is the batch read interface of the bulk engine
// (core.Sketch, the freq facade, and the sharded sketch satisfy it).
// The error metrics detect it and evaluate whole item sets through one
// pipelined lookup pass instead of a point query per item.
type BatchEstimator interface {
	Estimator
	EstimateBatch(items []int64, dst []int64) []int64
}

// errChunk bounds the scratch of a batched error evaluation.
const errChunk = 4096

// forEachAbsError calls fn with |f̂i − fi| for every distinct stream
// item, using the batch read kernel when the summary provides one.
func (c *Counter) forEachAbsError(e Estimator, fn func(d int64)) {
	be, ok := e.(BatchEstimator)
	if !ok {
		for item, f := range c.freqs {
			d := e.Estimate(item) - f
			if d < 0 {
				d = -d
			}
			fn(d)
		}
		return
	}
	items := make([]int64, 0, errChunk)
	truths := make([]int64, 0, errChunk)
	ests := make([]int64, errChunk)
	flush := func() {
		ests = be.EstimateBatch(items, ests)
		for i, f := range truths {
			d := ests[i] - f
			if d < 0 {
				d = -d
			}
			fn(d)
		}
		items = items[:0]
		truths = truths[:0]
	}
	for item, f := range c.freqs {
		items = append(items, item)
		truths = append(truths, f)
		if len(items) == errChunk {
			flush()
		}
	}
	if len(items) > 0 {
		flush()
	}
}

// MaxError returns max_i |f̂i − fi| over every distinct item in the
// stream — the metric of Figures 2 and 3. Items never inserted into the
// summary but present in the stream count via their (possibly zero)
// estimates, exactly as a point-query user would experience.
func (c *Counter) MaxError(e Estimator) int64 {
	var worst int64
	c.forEachAbsError(e, func(d int64) {
		if d > worst {
			worst = d
		}
	})
	return worst
}

// Range visits every (item, frequency) pair in unspecified order.
func (c *Counter) Range(fn func(item, freq int64) bool) {
	for item, f := range c.freqs {
		if !fn(item, f) {
			return
		}
	}
}
