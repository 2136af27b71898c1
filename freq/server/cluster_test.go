package server

import (
	"reflect"
	"strings"
	"testing"

	"repro/freq"
	"repro/freq/stream"
)

// startCluster boots n in-process servers and returns their addresses.
func startCluster(t *testing.T, n int, cfg Config) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = startServer(t, cfg).addr
	}
	return addrs
}

// TestQueryablePropertyAcrossBackends is the satellite property test: a
// Query over a local Sketch, a sharded Concurrent, and a 3-node
// in-process Cluster fed the same stream returns identical rows — the
// mergeable-summaries promise, pinned end to end. The budget is chosen
// so nothing is evicted anywhere (exact regime); in that regime the
// three read paths must agree bit for bit, including tie order.
func TestQueryablePropertyAcrossBackends(t *testing.T) {
	updates, err := stream.ZipfStream(1.1, 1<<9, 20_000, 500, 42)
	if err != nil {
		t.Fatal(err)
	}

	const k = 8192
	sk, err := freq.New[int64](k)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := freq.NewConcurrent[int64](k, freq.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	addrs := startCluster(t, 3, Config{MaxCounters: k, Shards: 4})
	cluster, err := DialCluster[int64](addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })

	// Feed all three the same stream; the cluster's copy is partitioned
	// round-robin over the nodes through the wire batch path.
	nodeItems := make([][]int64, 3)
	nodeWeights := make([][]int64, 3)
	var total int64
	for i, u := range updates {
		if err := sk.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
		if err := conc.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
		nodeItems[i%3] = append(nodeItems[i%3], u.Item)
		nodeWeights[i%3] = append(nodeWeights[i%3], u.Weight)
		total += u.Weight
	}
	for i, addr := range addrs {
		c, err := Dial[int64](addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.UpdateBatch(nodeItems[i], nodeWeights[i]); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.Refresh(); err != nil {
		t.Fatal(err)
	}
	if cluster.StreamWeight() != total {
		t.Fatalf("cluster N = %d, want %d", cluster.StreamWeight(), total)
	}

	backends := map[string]freq.Queryable[int64]{
		"sketch":     sk,
		"concurrent": conc,
		"cluster":    cluster,
	}
	queries := map[string]func(q freq.Queryable[int64]) []freq.Row[int64]{
		"top20": func(q freq.Queryable[int64]) []freq.Row[int64] {
			return freq.From[int64](q).Limit(20).Collect()
		},
		"threshold": func(q freq.Queryable[int64]) []freq.Row[int64] {
			return freq.From[int64](q).Where(total / 100).Collect()
		},
		"nfp-paged": func(q freq.Queryable[int64]) []freq.Row[int64] {
			return freq.From[int64](q).Where(50).WithErrorType(freq.NoFalsePositives).
				OrderBy(freq.OrderItem).Offset(5).Limit(10).Collect()
		},
	}
	for qname, run := range queries {
		want := run(backends["sketch"])
		if len(want) == 0 {
			t.Fatalf("%s: empty reference result", qname)
		}
		for bname, backend := range backends {
			got := run(backend)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s over %s: %d rows\n got %v\nwant %v", qname, bname, len(got), got, want)
			}
		}
	}

	// Point queries agree too (exact regime).
	for _, item := range []int64{0, 1, 7, 100, 511} {
		want := sk.Estimate(item)
		if got := conc.Estimate(item); got != want {
			t.Errorf("concurrent Estimate(%d) = %d, want %d", item, got, want)
		}
		if got := cluster.Estimate(item); got != want {
			t.Errorf("cluster Estimate(%d) = %d, want %d", item, got, want)
		}
	}
	if err := cluster.Err(); err != nil {
		t.Fatalf("cluster sticky error: %v", err)
	}
}

// TestClusterSnapshotIsolation pins that cluster reads are frozen
// between refreshes.
func TestClusterSnapshotIsolation(t *testing.T) {
	addrs := startCluster(t, 2, Config{MaxCounters: 1024, Shards: 2})
	ingest, err := Dial[int64](addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ingest.Close()
	if err := ingest.Update(7, 100); err != nil {
		t.Fatal(err)
	}
	// Single updates are buffered per connection; a read on the same
	// connection flushes them into the shared summary (see doc.go).
	if _, _, err := ingest.Stats(); err != nil {
		t.Fatal(err)
	}

	cluster, err := DialCluster[int64](addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if got := cluster.Estimate(7); got != 100 { // auto-refresh on first read
		t.Fatalf("Estimate(7) = %d, want 100", got)
	}
	// New writes are invisible until Refresh.
	if err := ingest.Update(7, 50); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ingest.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Estimate(7); got != 100 {
		t.Errorf("pre-refresh Estimate(7) = %d, want 100", got)
	}
	if err := cluster.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Estimate(7); got != 150 {
		t.Errorf("post-refresh Estimate(7) = %d, want 150", got)
	}
	if got := cluster.Query().Limit(1).Collect(); len(got) != 1 || got[0].Item != 7 || cluster.Err() != nil {
		t.Errorf("Query().Limit(1) = %v, Err %v", got, cluster.Err())
	}
}

// TestWireQueryCommands exercises the new protocol surface end to end:
// TOPK, FI (both semantics and mnemonic forms), EST, SNAP, and their
// error paths.
func TestWireQueryCommands(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2})
	c := dial(t, srv)
	for item, weight := range map[int64]int64{1: 500, 2: 300, 3: 10} {
		if err := c.Update(item, weight); err != nil {
			t.Fatal(err)
		}
	}

	top, err := c.TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Item != 1 || top[1].Item != 2 {
		t.Errorf("TopK = %v", top)
	}

	fi, err := c.FrequentItemsAboveThreshold(100, freq.NoFalsePositives)
	if err != nil {
		t.Fatal(err)
	}
	if len(fi) != 2 {
		t.Errorf("FI(100, NFP) = %v", fi)
	}
	// Mnemonic error-type spelling over the raw wire.
	resp, err := c.Raw("FI NFN 0")
	if err != nil || !strings.HasPrefix(resp, "MULTI 3") {
		t.Errorf("FI NFN 0 = %q, %v", resp, err)
	}
	for i := 0; i < 3; i++ { // drain the MULTI block
		if _, err := c.r.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}

	// EST is the Q alias used by the generic client.
	est, lb, ub, err := c.Query(1)
	if err != nil || est != 500 || lb != 500 || ub != 500 {
		t.Errorf("Query(1) = %d [%d, %d], %v", est, lb, ub, err)
	}

	// SNAP transfers the full summary.
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Estimate(1); got != 500 {
		t.Errorf("snapshot Estimate(1) = %d, want 500", got)
	}

	// Error paths keep the connection usable.
	for _, bad := range []string{"FI", "FI 2 0", "FI NFN x", "TOPK 0", "EST", "EST x"} {
		if _, err := c.Raw(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if _, _, _, err := c.Query(1); err != nil {
		t.Fatalf("connection dead after errors: %v", err)
	}
}

// TestClientQueryableOverWire runs the freq.Query builder against a
// remote server through the Client's Queryable implementation.
func TestClientQueryableOverWire(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2})
	c := dial(t, srv)
	items := []int64{10, 20, 30, 10, 20, 10}
	weights := []int64{5, 5, 5, 5, 5, 5}
	if err := c.UpdateBatch(items, weights); err != nil {
		t.Fatal(err)
	}
	rows := freq.From[int64](c).Limit(2).Collect()
	if len(rows) != 2 || rows[0].Item != 10 || rows[0].Estimate != 15 || rows[1].Item != 20 {
		t.Errorf("builder over wire = %v", rows)
	}
	if got := c.StreamWeight(); got != 30 {
		t.Errorf("StreamWeight = %d, want 30", got)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("sticky error: %v", err)
	}
}

// TestClusterUintItems checks the generic client/cluster over an
// unsigned item domain (bit-faithful wire round trip).
func TestClusterUintItems(t *testing.T) {
	addrs := startCluster(t, 2, Config{MaxCounters: 512, Shards: 2})
	c, err := Dial[uint64](addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const big = uint64(1) << 63 // negative as int64 on the wire
	if err := c.UpdateBatch([]uint64{big}, []int64{42}); err != nil {
		t.Fatal(err)
	}
	cluster, err := DialCluster[uint64](addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if got := cluster.Estimate(big); got != 42 {
		t.Errorf("Estimate(2^63) = %d, want 42", got)
	}
	rows := cluster.Query().Limit(1).Collect()
	if len(rows) != 1 || rows[0].Item != big {
		t.Errorf("rows = %v", rows)
	}
}
