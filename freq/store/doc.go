// Package store persists rotated window slots into a durable,
// queryable, time-partitioned on-disk log — the historical continuation
// of a freq.ConcurrentWindowed ring.
//
// A live window answers "what was frequent in the last N intervals";
// everything older is gone the moment its slot is recycled. A Store
// catches those slots on their way out: installed as the window's
// rotation sink (ConcurrentWindowed.SetRotationSink), it encodes each
// retired interval through the alloc-free sketch wire format into an
// append-only partition file, and Query(from, to) later rebuilds the
// summary of any historical range by merging the covered slots — the
// same lossless fold (Theorem 5 of the paper) the window itself uses,
// served through the same freq.Queryable surface.
//
// Layout: one directory per store holds the default history — the
// window's retired slots — and tenants/<escaped-id>/ one more history
// per tenant, laid out the same way and written by AppendTenant, the
// sink freq/tenant persists evicted tenants through. In each history,
// a partition file covers one wall-clock bucket (WithPartitionDuration)
// and holds self-delimiting, CRC-32C-guarded, optionally compressed
// blocks, one per retired slot. A MANIFEST.json records membership;
// block-level truth is always rebuilt by scanning, so recovery after
// any crash truncates at most a torn tail block. Retention (by age and/or byte budget) and
// compaction (folding old fine-grained partitions into coarser ones)
// keep the footprint bounded.
//
// Typical wiring:
//
//	st, _ := store.Open[string](dir,
//		store.WithPartitionDuration(time.Hour),
//		store.WithRetentionAge(30*24*time.Hour))
//	defer st.Close()
//	w, _ := freq.NewConcurrentWindowed[string](64, 24) // live day, hourly slots
//	w.SetRotationSink(st, time.Now())
//	stop := w.StartRotating(time.Hour) // aligned to wall-clock hours
//	defer stop()
//	...
//	v, _ := st.Query(yesterday, now)
//	top := v.Query().Limit(10).Collect()
package store
