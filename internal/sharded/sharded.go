// Package sharded holds the shard-routing rule of freq.Concurrent, the
// concurrency pattern the paper's §3 mergeability story enables: shard
// by item hash, summarize each shard independently under its own lock,
// and combine the shards by merging (Algorithm 5) when a single summary
// is needed.
//
// Because items are partitioned by hash, each item's counters live in
// exactly one shard: point queries touch one shard, and the shards'
// summaries hold disjoint item sets, so their merge needs no
// cross-shard reconciliation. This package decides the partition (how
// many shards a requested count becomes, and which shard an 8-byte item
// belongs to); freq.Concurrent owns the shards, their locks and the
// merged view.
package sharded

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xrand"
)

// Route maps 8-byte items onto a power-of-two number of shards. The
// route hash is independent of the shards' table hashes (a different
// mixing constant plus its own seed), so shard assignment does not
// correlate with probe positions.
type Route struct {
	seed, mask uint64
}

// New returns the route of a sketch with a total budget of maxCounters
// counters spread over numShards shards (rounded up to a power of two)
// and no pinned seed. It rejects a shard count below one and a
// per-shard budget below core.MinCounters.
func New(maxCounters, numShards int) (Route, error) {
	if numShards < 1 {
		return Route{}, fmt.Errorf("sharded: numShards %d must be positive", numShards)
	}
	n := NumShardsFor(numShards)
	if perShard := maxCounters / n; perShard < core.MinCounters {
		return Route{}, fmt.Errorf("sharded: %d counters over %d shards leaves %d per shard (min %d)",
			maxCounters, n, perShard, core.MinCounters)
	}
	return NewRoute(n, 0), nil
}

// NewRoute returns the route over NumShardsFor(numShards) shards. A
// nonzero seed pins the route hash, deriving its seed so that it never
// equals one the shards' tables derive from the same pinned seed; zero
// keeps a fixed default.
func NewRoute(numShards int, seed uint64) Route {
	r := Route{seed: 0x5a4d5bfe1c0ffee5, mask: uint64(NumShardsFor(numShards) - 1)}
	if seed != 0 {
		r.seed = xrand.Mix64(seed ^ 0xc0ffee5a4d5bfe1c)
	}
	return r
}

// NumShardsFor rounds a requested shard count up to the power of two the
// sketch actually uses.
func NumShardsFor(numShards int) int {
	n := 1
	for n < numShards {
		n <<= 1
	}
	return n
}

// NumShards returns the shard count.
func (r Route) NumShards() int { return int(r.mask) + 1 }

// ShardIndex returns the index of the shard item routes to.
func (r Route) ShardIndex(item int64) int {
	return int(xrand.Mix64(uint64(item)^r.seed) & r.mask)
}
