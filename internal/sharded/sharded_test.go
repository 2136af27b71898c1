package sharded

import "testing"

func TestValidation(t *testing.T) {
	if _, err := New(1024, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := New(8, 16); err == nil {
		t.Error("counters below per-shard minimum accepted")
	}
	r, err := New(1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumShards() != 4 {
		t.Errorf("shards = %d, want 4 (rounded up)", r.NumShards())
	}
	if r != NewRoute(4, 0) {
		t.Error("New's route differs from the unpinned NewRoute over the same shards")
	}
}
