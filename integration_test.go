// Integration tests crossing module boundaries through the public API
// only: workload generation → stream file IO → sketching → serialization
// → merging → downstream applications, the full pipeline a deployment
// would run.
package repro_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/freq"
	"repro/freq/store"
	"repro/freq/stream"
)

// TestPipelineFileToHeavyHitters is the cmd/genstream | cmd/freq flow:
// generate a trace, round-trip it through both file formats, sketch it,
// and validate the heavy-hitter report against ground truth.
func TestPipelineFileToHeavyHitters(t *testing.T) {
	trace, err := stream.PacketTrace(stream.TraceConfig{
		Packets: 150_000, DistinctSources: 1 << 14, Seed: 0xABC,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip through both file formats.
	var txt, bin bytes.Buffer
	if err := stream.WriteText(&txt, trace); err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteBinary(&bin, trace); err != nil {
		t.Fatal(err)
	}
	fromText, err := stream.ReadText(&txt)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := stream.ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromText) != len(trace) || len(fromBin) != len(trace) {
		t.Fatal("file round trips changed stream length")
	}
	for i := range trace {
		if fromText[i] != trace[i] || fromBin[i] != trace[i] {
			t.Fatalf("record %d drifted through file formats", i)
		}
	}

	// Sketch the stream and extract φ-heavy hitters.
	sketch, err := freq.New[int64](1024)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int64]int64{}
	var truthN int64
	for _, u := range fromBin {
		if err := sketch.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
		truth[u.Item] += u.Weight
		truthN += u.Weight
	}
	phi := 0.01
	threshold := int64(phi * float64(truthN))
	rows := sketch.Query().Where(threshold).WithErrorType(freq.NoFalseNegatives).Collect()
	reported := map[int64]bool{}
	for _, r := range rows {
		reported[r.Item] = true
	}
	for item, f := range truth {
		if f > threshold && !reported[item] {
			t.Errorf("heavy item %d (freq %d) missing from NFN report", item, f)
		}
	}
	for _, r := range sketch.Query().Where(threshold).WithErrorType(freq.NoFalsePositives).Collect() {
		if truth[r.Item] <= threshold {
			t.Errorf("NFP report contains light item %d", r.Item)
		}
	}
}

// TestPipelineDistributedMergeMatchesSingle simulates the §3 deployment:
// shard → summarize (concurrently, via the Concurrent sketch) → snapshot
// → serialize → merge with a separately-built sketch — and the result
// must honor the concatenated-stream guarantees.
func TestPipelineDistributedMergeMatchesSingle(t *testing.T) {
	streamA, err := stream.ZipfStream(1.05, 1<<12, 60_000, 5_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamB, err := stream.ZipfStream(1.05, 1<<12, 60_000, 5_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int64]int64{}
	var truthN int64
	for _, st := range [][]stream.Update{streamA, streamB} {
		for _, u := range st {
			truth[u.Item] += u.Weight
			truthN += u.Weight
		}
	}

	concA, err := freq.NewConcurrent[int64](2048, freq.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range streamA {
		if err := concA.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := concA.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	plainB, err := freq.New[int64](2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range streamB {
		if err := plainB.Update(u.Item, u.Weight); err != nil {
			t.Fatal(err)
		}
	}

	restoredA, err := freq.New[int64](2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := restoredA.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	merged := restoredA.Merge(plainB)
	if merged.StreamWeight() != truthN {
		t.Fatalf("merged N %d, want %d", merged.StreamWeight(), truthN)
	}
	for item, want := range truth {
		if lb, ub := merged.LowerBound(item), merged.UpperBound(item); lb > want || ub < want {
			t.Fatalf("item %d: [%d, %d] misses %d", item, lb, ub, want)
		}
	}
}

// TestPipelineGenericStringAnalytics drives the generic sketch through a
// serialize/merge cycle with string items, the topkwords deployment shape.
func TestPipelineGenericStringAnalytics(t *testing.T) {
	shardCount := 4
	shards := make([]*freq.Sketch[string], shardCount)
	truth := map[string]int64{}
	for i := range shards {
		s, err := freq.New[string](256)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = s
	}
	updates, err := stream.ZipfStream(1.2, 500, 40_000, 50, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range updates {
		word := wordFor(u.Item)
		truth[word] += u.Weight
		if err := shards[i%shardCount].Update(word, u.Weight); err != nil {
			t.Fatal(err)
		}
	}
	// Serialize every shard, deserialize, merge into one.
	var merged *freq.Sketch[string]
	for _, s := range shards {
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := freq.New[string](256)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = restored
		} else {
			merged.Merge(restored)
		}
	}
	for word, f := range truth {
		if lb, ub := merged.LowerBound(word), merged.UpperBound(word); lb > f || ub < f {
			t.Fatalf("%q: [%d, %d] misses %d", word, lb, ub, f)
		}
	}
}

func wordFor(item int64) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	var b []byte
	v := uint64(item)
	for i := 0; i < 6; i++ {
		b = append(b, letters[v%26])
		v /= 26
	}
	return string(b)
}

// TestPipelineCrashRecoveryDurableWindow is the durability round trip:
// a store-backed window persists rotated slots, the process "crashes"
// (the store is never closed and the newest partition gains a torn
// tail), and a fresh store over the same directory must answer exactly
// like a single in-memory sketch of everything rotated out — committed
// history survives any crash window.
func TestPipelineCrashRecoveryDurableWindow(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open[int64](dir, store.WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	// No st.Close: the crash happens with the store live.

	w, err := freq.NewConcurrentWindowed[int64](4096, 6)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	w.SetRotationSink(st, base)

	ref, err := freq.New[int64](1 << 15)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	const slots = 18 // 18 x 15s slots spans 5 one-minute partitions
	for s := 0; s < slots; s++ {
		for i := 0; i < 150; i++ {
			item := int64(rng.Intn(80))
			weight := int64(rng.Intn(40) + 1)
			if err := w.Update(item, weight); err != nil {
				t.Fatal(err)
			}
			if err := ref.Update(item, weight); err != nil {
				t.Fatal(err)
			}
		}
		w.RotateAt(base.Add(time.Duration(s+1) * 15 * time.Second))
	}
	if err := w.SinkErr(); err != nil {
		t.Fatal(err)
	}

	// The crash: garbage lands after the last committed block of the
	// newest partition (a torn in-flight append).
	parts, err := filepath.Glob(filepath.Join(dir, "part-*.fps"))
	if err != nil || len(parts) < 4 {
		t.Fatalf("partitions on disk: %v (err %v)", parts, err)
	}
	sort.Strings(parts)
	f, err := os.OpenFile(parts[len(parts)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-append-garbage-from-the-crash")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recovery: a fresh store over the same directory.
	st2, err := store.Open[int64](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	v, err := st2.Query(base, base.Add(slots*15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.StreamWeight(), ref.StreamWeight(); got != want {
		t.Fatalf("recovered stream weight %d, want %d", got, want)
	}
	for item := int64(0); item < 80; item++ {
		if got, want := v.Estimate(item), ref.Estimate(item); got != want {
			t.Fatalf("item %d after recovery: got %d, want %d", item, got, want)
		}
	}

	// And the recovered store keeps working: one more slot appends and
	// queries back.
	extra, err := freq.New[int64](64)
	if err != nil {
		t.Fatal(err)
	}
	if err := extra.Update(7777, 123); err != nil {
		t.Fatal(err)
	}
	end := base.Add(slots * 15 * time.Second)
	if err := st2.AppendSlot(freq.NewView(extra), end, end.Add(15*time.Second)); err != nil {
		t.Fatal(err)
	}
	v, err = st2.Query(end, end.Add(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if v.Estimate(7777) != 123 {
		t.Fatalf("post-recovery append: estimate %d, want 123", v.Estimate(7777))
	}
}
