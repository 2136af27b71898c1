package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/freq"
	"repro/freq/store"
	"repro/freq/tenant"
	"repro/internal/core"
	"repro/internal/sharded"
)

// replayPairs is how much of the ring each layer replay feeds through.
const replayPairs = 1 << 20

// timedPasses is how many times an ingest replay feeds its pairs through
// after an untimed pass that fills the tables. The fastest pass is the
// one the shared host slowed least, as the end-to-end metrics take the
// host's fast stretches, so the two compare.
const timedPasses = 5

// fastestPass runs pass once untimed, then timedPasses times timed, and
// returns the least time the calls pass makes through span took in one
// timed pass. In a timed pass span records each call as a span named
// name; in the untimed pass it only makes the call.
func fastestPass(tr *tracer, root int64, name string, pass func(span func(func())) error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := range 1 + timedPasses {
		span := func(fn func()) { fn() }
		if i > 0 {
			span = func(fn func()) { tr.time(name, root, fn) }
			runtime.GC()
		}
		before, _ := tr.total(name)
		if err := pass(span); err != nil {
			return 0, err
		}
		if i > 0 {
			after, _ := tr.total(name)
			best = min(best, after-before)
		}
	}
	return best, nil
}

// nsPerItem is d in nanoseconds per item.
func nsPerItem(d time.Duration, items int) float64 {
	return float64(d.Nanoseconds()) / float64(items)
}

// replayLayers feeds the workload's own ring through each layer's public
// entry points in this process, one span per call, and returns the
// per-layer metrics the spans give. The core, sharded, query and
// windowed layers run at the workload's geometry; the store and tenant
// layers at the geometry of the workload that exercises them (history,
// tenants), so those rows mean the same on every workload. A timed pass
// that allocates nothing starts with a collection, so one its set-up's
// allocations would trigger does not land inside it: the replay shares
// its one processor with the collector, and this process's heap, which
// holds the ring, is far larger than the daemon's.
func replayLayers(tr *tracer, in *inputs, dir string) (map[string]float64, error) {
	root := tr.begin("replay."+in.wl.name, 0)
	defer tr.end(root)
	m := map[string]float64{}
	items, weights := in.pairs(0, min(replayPairs, len(in.ring)/pairSize))
	for _, layer := range []func(*tracer, int64, *inputs, []int64, []int64, map[string]float64) error{
		replayCore, replaySharded, replayWindowed,
	} {
		if err := layer(tr, root, in, items, weights, m); err != nil {
			return nil, err
		}
	}
	if err := replayStore(tr, root, in, dir, m); err != nil {
		return nil, fmt.Errorf("store replay: %w", err)
	}
	if err := replayTenant(tr, root, items, weights, m); err != nil {
		return nil, fmt.Errorf("tenant replay: %w", err)
	}
	return m, nil
}

// perCall is the mean span length of name in unit.
func perCall(tr *tracer, name string, unit time.Duration) float64 {
	d, n := tr.total(name)
	return float64(d) / float64(unit) / float64(n)
}

// batches calls fn on consecutive size-item slices of items and weights.
func batches(items, weights []int64, size int, fn func(items, weights []int64) error) error {
	for i := 0; i+size <= len(items); i += size {
		if err := fn(items[i:i+size], weights[i:i+size]); err != nil {
			return err
		}
	}
	return nil
}

// replayCore times the Misra–Gries kernel: weighted batch updates into a
// full table, merges of two full summaries, and decoding a serialized
// summary into a reused sketch.
func replayCore(tr *tracer, root int64, in *inputs, items, weights []int64, m map[string]float64) error {
	frame := in.wl.framePairs
	sk, err := core.NewWithOptions(core.Options{MaxCounters: in.wl.k})
	if err != nil {
		return err
	}
	// A first pass fills the table, so every later pass decrements.
	if err := sk.UpdateWeightedBatch(items, weights); err != nil {
		return err
	}
	dec := sk.DecrementCount()
	best, err := fastestPass(tr, root, "core.update", func(span func(func())) error {
		return batches(items, weights, frame, func(it, wt []int64) error {
			var err error
			span(func() { err = sk.UpdateWeightedBatch(it, wt) })
			return err
		})
	})
	if err != nil {
		return err
	}
	m["core.update_ns_per_item"] = nsPerItem(best, len(items)/frame*frame)
	m["core.decrements_per_mitem"] = float64(sk.DecrementCount()-dec) * 1e6 / float64((1+timedPasses)*len(items))

	half := len(items) / 2
	other, err := core.NewWithOptions(core.Options{MaxCounters: in.wl.k})
	if err != nil {
		return err
	}
	if err := other.UpdateWeightedBatch(items[half:], weights[half:]); err != nil {
		return err
	}
	blob := sk.Serialize()
	for range 10 {
		dst, err := core.Deserialize(blob)
		if err != nil {
			return err
		}
		tr.time("core.merge", root, func() { dst.Merge(other) })
	}
	m["core.merge_ms"] = perCall(tr, "core.merge", time.Millisecond)

	dst := new(core.Sketch)
	for range 50 {
		tr.time("core.deserialize_into", root, func() { err = core.DeserializeInto(dst, blob) })
		if err != nil {
			return err
		}
	}
	m["core.deserialize_into_us_per_slot"] = perCall(tr, "core.deserialize_into", time.Microsecond)
	return nil
}

// replaySharded times the daemon's global ingest path — a Writer
// partitioning whole frames over the shards — then view rebuilds and
// top-k queries over the sharded summary.
func replaySharded(tr *tracer, root int64, in *inputs, items, weights []int64, m map[string]float64) error {
	wl := in.wl
	c, err := freq.NewConcurrent[int64](wl.k, freq.WithShards(wl.shards))
	if err != nil {
		return err
	}
	w, err := freq.NewWriter(c)
	if err != nil {
		return err
	}
	pairs := make([]freq.Pair[int64], len(items))
	for i := range pairs {
		pairs[i] = freq.Pair[int64]{Item: items[i], Weight: weights[i]}
	}
	best, err := fastestPass(tr, root, "sharded.writer", func(span func(func())) error {
		var err error
		for i := 0; i+wl.framePairs <= len(pairs); i += wl.framePairs {
			frame := pairs[i : i+wl.framePairs]
			span(func() { err = w.AddPairs(frame) })
			if err != nil {
				return err
			}
		}
		span(func() { err = w.Flush() })
		return err
	})
	if err != nil {
		return err
	}
	m["sharded.writer_ns_per_item"] = nsPerItem(best, len(pairs)/wl.framePairs*wl.framePairs)

	route, err := sharded.New(wl.k, wl.shards)
	if err != nil {
		return err
	}
	loads := make([]int, route.NumShards())
	for i := range len(in.ring) / pairSize {
		loads[route.ShardIndex(in.item(i))]++
	}
	peak := 0
	for _, l := range loads {
		peak = max(peak, l)
	}
	m["sharded.shard_skew"] = float64(peak) * float64(len(loads)) / float64(len(in.ring)/pairSize)

	var v *freq.View[int64]
	for i := range 20 {
		if err := c.Update(items[i], 1); err != nil { // invalidate the cached view
			return err
		}
		tr.time("sharded.view", root, func() { v, err = c.View() })
		if err != nil {
			return err
		}
	}
	m["sharded.view_ms"] = perCall(tr, "sharded.view", time.Millisecond)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 20 {
		tr.time("query.topk", root, func() { freq.From[int64](v).Limit(topK).Collect() })
	}
	runtime.ReadMemStats(&after)
	m["query.topk_ms"] = perCall(tr, "query.topk", time.Millisecond)
	m["query.bytes_per_topk"] = float64(after.TotalAlloc-before.TotalAlloc) / 20
	m["query.rows_scanned"] = float64(v.NumActive())
	return nil
}

// replayWindowed fills a window the way the daemon's window twin
// is fed (connection-buffered batches, a rotation per slot), then times
// window reads alone and ingest beside a reader looping on them.
func replayWindowed(tr *tracer, root int64, in *inputs, items, weights []int64, m map[string]float64) error {
	const slots = windowSlots
	batch := freq.DefaultBatchSize
	cw, err := freq.NewConcurrentWindowed[int64](in.wl.k, slots)
	if err != nil {
		return err
	}
	perSlot := len(items) / slots / batch * batch
	// A pass fills every slot, rotating between them; once the first has
	// wrapped the ring, each rotation recycles a full slot.
	best, err := fastestPass(tr, root, "windowed.ingest", func(span func(func())) error {
		for s := range slots {
			from := s * perSlot
			err := batches(items[from:from+perSlot], weights[from:from+perSlot], batch, func(it, wt []int64) error {
				var err error
				span(func() { err = cw.UpdateWeightedBatch(it, wt) })
				return err
			})
			if err != nil {
				return err
			}
			if s < slots-1 {
				cw.Rotate()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["windowed.ingest_ns_per_item"] = nsPerItem(best, slots*perSlot)

	for i := range 10 {
		if err := cw.Update(items[i], 1); err != nil { // invalidate the cached merge
			return err
		}
		tr.time("windowed.topk", root, func() { cw.TopKLast(slots, topK) })
	}
	m["windowed.topk_ms"] = perCall(tr, "windowed.topk", time.Millisecond)

	// For two seconds a batch is due every 2ms while a reader merges the
	// window five times a second. Each wait runs from when the batch was
	// due, so batches queued behind a read holding the window mutex count
	// it.
	const readEvery, batchEvery, batchesDue = 200 * time.Millisecond, 2 * time.Millisecond, 1000
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for next := start; ; next = next.Add(readEvery) {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(next)):
				cw.TopKLast(slots, topK)
			}
		}
	}()
	var waits []float64
	for i := range batchesDue {
		due := start.Add(time.Duration(i) * batchEvery)
		time.Sleep(time.Until(due))
		from := (i * batch) % (len(items) - batch)
		tr.time("windowed.ingest_wait", root, func() { err = cw.UpdateWeightedBatch(items[from:from+batch], weights[from:from+batch]) })
		if err != nil {
			break
		}
		waits = append(waits, float64(time.Since(due))/1e6)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	m["windowed.ingest_wait_p90_ms"] = percentile(waits, 0.9)

	// Once the ring has wrapped, each rotation recycles a full slot.
	for i := range 30 {
		from := (i * batch) % (len(items) - batch)
		if err := cw.UpdateWeightedBatch(items[from:from+batch], weights[from:from+batch]); err != nil {
			return err
		}
		tr.time("windowed.rotate", root, cw.Rotate)
	}
	m["windowed.rotate_us"] = perCall(tr, "windowed.rotate", time.Microsecond)
	return nil
}

// replayStore appends six hours of history-shaped slots to a fresh
// store, then times reopening it and merging its last rangeSeconds, the
// history workload's RANGE span.
func replayStore(tr *tracer, root int64, in *inputs, dir string, m map[string]float64) error {
	const slots = 6 * 60
	hist, _ := workloadByName("history")
	dir = filepath.Join(dir, "layer-store")
	defer os.RemoveAll(dir)
	opt := store.WithPartitionDuration(time.Hour)
	st, err := store.Open[int64](dir, opt)
	if err != nil {
		return err
	}
	views, err := chunkViews(in, hist.k, min(8, len(in.ring)/pairSize/slotPairs))
	if err != nil {
		st.Close()
		return err
	}
	end := time.Now().Truncate(time.Minute)
	for i := range slots {
		start := end.Add(-time.Duration(slots-i) * time.Minute)
		tr.time("store.append", root, func() { err = st.AppendSlot(views[i%len(views)], start, start.Add(time.Minute)) })
		if err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	m["store.append_us"] = perCall(tr, "store.append", time.Microsecond)

	for i := range 3 {
		tr.time("store.open", root, func() { st, err = store.Open[int64](dir, opt) })
		if err != nil {
			return err
		}
		if i < 2 {
			if err := st.Close(); err != nil {
				return err
			}
		}
	}
	defer st.Close()
	m["store.open_ms"] = perCall(tr, "store.open", time.Millisecond)

	from := end.Add(-rangeSeconds * time.Second)
	var acc *freq.Sketch[int64]
	for range 10 {
		tr.time("store.query_range", root, func() { acc, err = st.QueryInto(acc, from, end) })
		if err != nil {
			return err
		}
	}
	m["store.query_range_ms"] = perCall(tr, "store.query_range", time.Millisecond)
	touched := map[int64]bool{}
	for t := from; t.Before(end); t = t.Add(time.Minute) {
		touched[t.UnixNano()/int64(time.Hour)] = true
	}
	m["store.partitions_touched"] = float64(len(touched))
	s := st.Stats()
	m["store.bytes_per_slot"] = float64(s.Bytes) / float64(s.Blocks)
	return nil
}

// replayTenant times the tenant registry at the tenants workload's
// geometry: acquiring a live tenant, evicting one and recreating it from
// the warm pool, and a tenant's batch update.
func replayTenant(tr *tracer, root int64, items, weights []int64, m map[string]float64) error {
	ten, _ := workloadByName("tenants")
	const maxTenants = 256
	mgr, err := tenant.New[int64](tenant.Config{MaxCounters: ten.k, Shards: ten.shards, MaxTenants: maxTenants})
	if err != nil {
		return err
	}
	for r := range maxTenants {
		t, err := mgr.Acquire(tenantID(r))
		if err != nil {
			return err
		}
		t.Release()
	}
	const hits, churns = 100_000, 10_000
	hot := []byte(tenantID(0))
	runtime.GC()
	tr.time("tenant.acquire_hit", root, func() {
		for range hits {
			var t *tenant.Tenant[int64]
			if t, err = mgr.AcquireBytes(hot); err != nil {
				return
			}
			t.Release()
		}
	})
	if err != nil {
		return err
	}
	m["tenant.acquire_hit_ns"] = perCall(tr, "tenant.acquire_hit", time.Nanosecond) / hits

	cold := tenantID(maxTenants - 1)
	tr.time("tenant.churn", root, func() {
		for range churns {
			var t *tenant.Tenant[int64]
			if err = mgr.Evict(cold); err != nil {
				return
			}
			if t, err = mgr.Acquire(cold); err != nil {
				return
			}
			t.Release()
		}
	})
	if err != nil {
		return err
	}
	m["tenant.churn_ns"] = perCall(tr, "tenant.churn", time.Nanosecond) / churns

	t, err := mgr.Acquire(tenantID(0))
	if err != nil {
		return err
	}
	defer t.Release()
	best, err := fastestPass(tr, root, "tenant.update", func(span func(func())) error {
		return batches(items, weights, ten.framePairs, func(it, wt []int64) error {
			var err error
			span(func() { err = t.UpdateWeightedBatch(it, wt) })
			return err
		})
	})
	m["tenant.update_ns_per_item"] = nsPerItem(best, len(items)/ten.framePairs*ten.framePairs)
	return err
}
