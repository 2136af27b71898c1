package sharded

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hashmap"
)

// TestViewEpochCache pins the caching contract at the sharded layer:
// identical pointer back while no shard changes, rebuild after any write
// path touches a shard, merge count flat across repeated reads.
func TestViewEpochCache(t *testing.T) {
	sk, err := New(512, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		_ = sk.Update(i, i+1)
	}
	v1, err := sk.View()
	if err != nil {
		t.Fatal(err)
	}
	merges := sk.ViewMerges()
	if merges != int64(sk.NumShards()) {
		t.Fatalf("first view merged %d shards, want %d", merges, sk.NumShards())
	}
	for i := 0; i < 8; i++ {
		v, err := sk.View()
		if err != nil {
			t.Fatal(err)
		}
		if v != v1 {
			t.Fatal("unchanged epochs returned a different view")
		}
	}
	if got := sk.ViewMerges(); got != merges {
		t.Fatalf("repeated views grew merge count %d -> %d", merges, got)
	}

	// Each write path invalidates.
	writes := []struct {
		name string
		do   func()
	}{
		{"Update", func() { _ = sk.Update(1, 1) }},
		{"UpdateBatch", func() { sk.UpdateBatch([]int64{2, 3}) }},
		{"UpdateWeightedBatch", func() { _ = sk.UpdateWeightedBatch([]int64{4}, []int64{2}) }},
		{"UpdateShardPairs", func() {
			item := int64(5)
			_ = sk.UpdateShardPairs(sk.ShardIndex(item), []hashmap.Pair{{Key: item, Value: 1}})
		}},
		{"Reset", sk.Reset},
	}
	for _, w := range writes {
		before, err := sk.View()
		if err != nil {
			t.Fatal(err)
		}
		w.do()
		after, err := sk.View()
		if err != nil {
			t.Fatal(err)
		}
		if before == after {
			t.Errorf("%s did not invalidate the view", w.name)
		}
	}
}

// TestViewMatchesSnapshot checks the view answers exactly like an
// Algorithm 5 snapshot of the same state.
func TestViewMatchesSnapshot(t *testing.T) {
	sk, err := New(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		_ = sk.Update(i%64, 3)
	}
	snap, err := sk.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	view, err := sk.View()
	if err != nil {
		t.Fatal(err)
	}
	if snap.StreamWeight() != view.StreamWeight() {
		t.Fatalf("N: snapshot %d, view %d", snap.StreamWeight(), view.StreamWeight())
	}
	for i := int64(0); i < 64; i++ {
		if s, v := snap.Estimate(i), view.Estimate(i); s != v {
			t.Fatalf("item %d: snapshot %d, view %d", i, s, v)
		}
	}
	rows := map[int64]core.Row{}
	for r := range snap.All() {
		rows[r.Item] = r
	}
	n := 0
	for r := range view.All() {
		if r != rows[r.Item] {
			t.Errorf("view row %v, snapshot row %v", r, rows[r.Item])
		}
		n++
	}
	if n != len(rows) {
		t.Errorf("view has %d rows, snapshot %d", n, len(rows))
	}
}

// TestViewUnderConcurrency hammers View from readers racing writers; the
// race detector plus the per-shard consistency invariant (no torn reads)
// is the assertion.
func TestViewUnderConcurrency(t *testing.T) {
	sk, err := New(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				_ = sk.Update(int64(g*5000+i)%100, 2)
			}
		}(g)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, err := sk.View()
			if err != nil {
				t.Error(err)
				return
			}
			if v.StreamWeight() < 0 {
				t.Error("negative stream weight")
				return
			}
			for range v.All() {
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()

	v, err := sk.View()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 * 5000 * 2); v.StreamWeight() != want {
		t.Fatalf("final view N = %d, want %d", v.StreamWeight(), want)
	}
}
