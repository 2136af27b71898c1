// Package repro is a from-scratch Go reproduction of Anderson, Bevin,
// Lang, Liberty, Rhodes, and Thaler, "A High-Performance Algorithm for
// Identifying Frequent Items in Data Streams" (IMC 2017) — the weighted
// Misra–Gries variant deployed as the Apache DataSketches Frequent Items
// sketch — grown into a production-shaped system behind one public API.
//
// # Public API
//
// Everything downstream code needs lives in the freq package tree. This
// root package holds no code of its own: it documents the layout and
// hosts the cross-package integration and fuzz tests.
//
//   - repro/freq — the generic facade: Sketch[T] (fast parallel-array
//     backend for int64/uint64, map backend for any other comparable
//     type), Concurrent[T] (sharded, goroutine-safe, with epoch-cached
//     snapshot-isolated read views), Signed[T] (turnstile streams with
//     deletions), the unified read layer (Queryable[T] and the
//     iterator-based Query builder), functional-options construction,
//     sentinel errors, and binary/streaming serialization.
//   - repro/freq/stream — workload generation and stream file IO.
//   - repro/freq/server — the summary as a line-protocol TCP service,
//     plus the Cluster fan-out client that merges a fleet of servers
//     into one queryable summary.
//
// # Implementation
//
// The research internals stay under internal/, reachable only through
// the facade:
//
//   - internal/core — the paper's algorithm (SMED/SMIN and any decrement
//     quantile), with merging, serialization and heavy-hitter queries.
//   - internal/items — the generic-item (any comparable type) variant.
//   - internal/sharded — the shard-routing rule of freq.Concurrent.
//   - internal/mg, internal/spacesaving, internal/sketches, internal/gk —
//     every baseline the paper's evaluation compares against.
//   - internal/hashmap, internal/qselect, internal/xrand — the §2.3.3
//     data-structure substrate.
//   - internal/streamgen, internal/exact, internal/experiments —
//     workload generation, ground truth, and the harness behind
//     cmd/experiments that regenerates Figures 1-4 and the paper's
//     tables.
//
// Binaries are under cmd/ (freq, freqd, genstream, experiments) and
// runnable examples under examples/.
package repro
