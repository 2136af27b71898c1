// Black-box golden-path tests for the public facade: every instantiation
// the package advertises (fast uint64, generic string, concurrent,
// signed) through update → query → heavy hitters → merge →
// marshal/unmarshal.
package freq_test

import (
	"bytes"
	"encoding"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/freq"
)

// feedUint64 drives a skewed deterministic stream and returns the ground
// truth. Item i gets weight proportional to 1/(1+i%97), concentrated on
// few heavy items.
func feedUint64(t *testing.T, u interface {
	Update(uint64, int64) error
}, n int) map[uint64]int64 {
	t.Helper()
	truth := map[uint64]int64{}
	for i := 0; i < n; i++ {
		item := uint64(i % 997)
		w := int64(1 + 5000/(1+item%97))
		if err := u.Update(item, w); err != nil {
			t.Fatal(err)
		}
		truth[item] += w
	}
	return truth
}

func checkBounds[T comparable](t *testing.T, s *freq.Sketch[T], truth map[T]int64) {
	t.Helper()
	for item, want := range truth {
		lb, ub := s.LowerBound(item), s.UpperBound(item)
		if lb > want || ub < want {
			t.Fatalf("item %v: [%d, %d] misses %d", item, lb, ub, want)
		}
		if est := s.Estimate(item); est != 0 && (est < lb || est > ub) {
			t.Fatalf("item %v: estimate %d outside [%d, %d]", item, est, lb, ub)
		}
	}
}

func TestSketchUint64GoldenPath(t *testing.T) {
	s, err := freq.New[uint64](256, freq.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	truth := feedUint64(t, s, 200_000)
	var truthN int64
	for _, w := range truth {
		truthN += w
	}
	if s.StreamWeight() != truthN {
		t.Fatalf("StreamWeight = %d, want %d", s.StreamWeight(), truthN)
	}
	checkBounds(t, s, truth)

	// Heavy hitters: NFN must contain every item above the threshold; NFP
	// must contain only items above it.
	threshold := truthN / 100
	reported := map[uint64]bool{}
	for _, r := range s.Query().Where(threshold).WithErrorType(freq.NoFalseNegatives).Collect() {
		reported[r.Item] = true
	}
	for item, w := range truth {
		if w > threshold && !reported[item] {
			t.Errorf("heavy item %d (weight %d) missing from NFN report", item, w)
		}
	}
	for _, r := range s.Query().Where(threshold).WithErrorType(freq.NoFalsePositives).Collect() {
		if truth[r.Item] <= threshold {
			t.Errorf("light item %d in NFP report", r.Item)
		}
	}

	// Merge with a second sketch summarizing a disjoint stream.
	other, err := freq.New[uint64](256)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if err := other.Update(1_000_000+i, 777); err != nil {
			t.Fatal(err)
		}
		truth[1_000_000+i] += 777
	}
	s.Merge(other)
	if want := truthN + 50*777; s.StreamWeight() != want {
		t.Fatalf("merged StreamWeight = %d, want %d", s.StreamWeight(), want)
	}
	checkBounds(t, s, truth)

	// Marshal/unmarshal: the restored sketch answers identically.
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := freq.New[uint64](8)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.StreamWeight() != s.StreamWeight() ||
		restored.MaximumError() != s.MaximumError() ||
		restored.NumActive() != s.NumActive() {
		t.Fatal("unmarshaled sketch drifted")
	}
	for item := range truth {
		if restored.Estimate(item) != s.Estimate(item) {
			t.Fatalf("item %d: restored estimate %d != %d", item, restored.Estimate(item), s.Estimate(item))
		}
	}

	// Streaming round-trip through WriteTo/ReadFrom with trailing data.
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil || n != int64(len(blob)) {
		t.Fatalf("WriteTo = (%d, %v), want %d bytes", n, err, len(blob))
	}
	buf.WriteString("trailing")
	streamed, err := freq.New[uint64](8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamed.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "trailing" {
		t.Fatalf("ReadFrom overconsumed; %q left", got)
	}
	if streamed.StreamWeight() != s.StreamWeight() {
		t.Fatal("streamed sketch drifted")
	}
}

func TestSketchStringGoldenPath(t *testing.T) {
	s, err := freq.New[string](128)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]int64{}
	for i := 0; i < 60_000; i++ {
		word := fmt.Sprintf("w%03d", i%499)
		w := int64(1 + 2000/(1+i%499))
		if err := s.Update(word, w); err != nil {
			t.Fatal(err)
		}
		truth[word] += w
	}
	var truthN int64
	for _, w := range truth {
		truthN += w
	}
	if s.StreamWeight() != truthN {
		t.Fatalf("StreamWeight = %d, want %d", s.StreamWeight(), truthN)
	}
	checkBounds(t, s, truth)

	threshold := truthN / 50
	reported := map[string]bool{}
	for _, r := range s.Query().Where(threshold).WithErrorType(freq.NoFalseNegatives).Collect() {
		reported[r.Item] = true
	}
	for word, w := range truth {
		if w > threshold && !reported[word] {
			t.Errorf("heavy word %q missing from NFN report", word)
		}
	}

	// Merge and marshal round-trip.
	other, err := freq.New[string](128)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Update("merged-only", 99_999); err != nil {
		t.Fatal(err)
	}
	truth["merged-only"] += 99_999
	s.Merge(other)
	checkBounds(t, s, truth)

	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := freq.New[string](8)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.StreamWeight() != s.StreamWeight() || restored.NumActive() != s.NumActive() {
		t.Fatal("unmarshaled sketch drifted")
	}
	if restored.Estimate("merged-only") != s.Estimate("merged-only") {
		t.Fatal("restored estimate drifted")
	}

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("x")
	streamed, err := freq.New[string](8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamed.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "x" {
		t.Fatal("generic ReadFrom overconsumed")
	}
	if streamed.StreamWeight() != s.StreamWeight() {
		t.Fatal("streamed generic sketch drifted")
	}
}

func TestConcurrentUint64GoldenPath(t *testing.T) {
	c, err := freq.NewConcurrent[uint64](4096, freq.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 8 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	const workers = 8
	const perWorker = 25_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				item := uint64(i % 500)
				if err := c.Update(item, 3); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wantN := int64(workers * perWorker * 3)
	if c.StreamWeight() != wantN {
		t.Fatalf("StreamWeight = %d, want %d", c.StreamWeight(), wantN)
	}
	wantEach := wantN / 500
	for item := uint64(0); item < 500; item++ {
		lb, ub := c.LowerBound(item), c.UpperBound(item)
		if lb > wantEach || ub < wantEach {
			t.Fatalf("item %d: [%d, %d] misses %d", item, lb, ub, wantEach)
		}
	}

	rows := c.Query().Where(wantEach - 1).WithErrorType(freq.NoFalseNegatives).Collect()
	if len(rows) < 500 {
		t.Fatalf("FrequentItems returned %d rows, want >= 500", len(rows))
	}
	if top := c.Query().Limit(10).Collect(); len(top) != 10 {
		t.Fatalf("TopK = %d rows", len(top))
	}

	// Snapshot + marshal-unmarshal: the decoded summary covers the truth.
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := freq.New[uint64](8)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.StreamWeight() != wantN {
		t.Fatalf("snapshot N = %d, want %d", restored.StreamWeight(), wantN)
	}
	for item := uint64(0); item < 500; item++ {
		if lb, ub := restored.LowerBound(item), restored.UpperBound(item); lb > wantEach || ub < wantEach {
			t.Fatalf("snapshot item %d: [%d, %d] misses %d", item, lb, ub, wantEach)
		}
	}

	// Snapshot-merge is the cross-process combination path.
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	single, err := freq.New[uint64](4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Update(999_999, 12345); err != nil {
		t.Fatal(err)
	}
	single.Merge(snap)
	if want := wantN + 12345; single.StreamWeight() != want {
		t.Fatalf("merged snapshot N = %d, want %d", single.StreamWeight(), want)
	}

	c.Reset()
	if c.StreamWeight() != 0 {
		t.Fatal("Reset left weight behind")
	}
}

func TestConcurrentStringFallback(t *testing.T) {
	c, err := freq.NewConcurrent[string](1024, freq.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]int64{}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				word := fmt.Sprintf("item-%d", i%200)
				c.UpdateOne(word)
				mu.Lock()
				truth[word]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for word, want := range truth {
		if lb, ub := c.LowerBound(word), c.UpperBound(word); lb > want || ub < want {
			t.Fatalf("%q: [%d, %d] misses %d", word, lb, ub, want)
		}
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.StreamWeight() != c.StreamWeight() {
		t.Fatal("snapshot weight drifted")
	}
}

func TestSignedGoldenPath(t *testing.T) {
	s, err := freq.NewSigned[uint64](256, freq.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	truth := map[uint64]int64{}
	for i := 0; i < 50_000; i++ {
		item := uint64(i % 300)
		s.Update(item, 10)
		truth[item] += 10
		if i%7 == 0 {
			s.Update(item, -4)
			truth[item] -= 4
		}
	}
	for item, want := range truth {
		if lb, ub := s.LowerBound(item), s.UpperBound(item); lb > want || ub < want {
			t.Fatalf("item %d: [%d, %d] misses %d", item, lb, ub, want)
		}
	}
	if s.NetWeight() >= s.GrossWeight() {
		t.Fatalf("net %d should be below gross %d with deletions present", s.NetWeight(), s.GrossWeight())
	}
}

// TestSignedExactSmall checks that a stream within the counter budget is
// answered exactly: signed estimates, both weights, and a zero error.
func TestSignedExactSmall(t *testing.T) {
	s, err := freq.NewSigned[int64](64, freq.WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	s.Update(1, 100)
	s.Update(1, -30)
	s.Update(2, 50)
	s.Update(2, -50)
	s.Update(3, 0) // no-op
	if got := s.Estimate(1); got != 70 {
		t.Errorf("Estimate(1) = %d, want 70", got)
	}
	if got := s.Estimate(2); got != 0 {
		t.Errorf("Estimate(2) = %d, want 0", got)
	}
	if s.NetWeight() != 70 || s.GrossWeight() != 230 {
		t.Errorf("net %d gross %d, want 70 230", s.NetWeight(), s.GrossWeight())
	}
	if s.MaximumError() != 0 {
		t.Errorf("small stream should be exact, error %d", s.MaximumError())
	}
}

// TestSignedBracketsUnderPressure drives a strict-turnstile stream over
// many items through tiny summaries: the bounds must bracket the signed
// truth, with error bounded relative to gross weight (§1.3 Note).
func TestSignedBracketsUnderPressure(t *testing.T) {
	s, err := freq.NewSigned[int64](32, freq.WithSeed(42), freq.WithoutGrowth())
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int64]int64{}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 50_000; i++ {
		item := int64(rng.Intn(2000))
		w := int64(rng.Intn(100) + 1)
		// Delete only up to the current frequency (strict turnstile).
		if rng.Intn(4) == 0 && truth[item] > 0 {
			w = min(w, truth[item])
			s.Update(item, -w)
			truth[item] -= w
		} else {
			s.Update(item, w)
			truth[item] += w
		}
	}
	maxErr := s.MaximumError()
	if maxErr == 0 {
		t.Fatal("no decrements: 2000 items through 32 counters should force evictions")
	}
	if bound := 3 * freq.TailBound(32, 0, s.GrossWeight()); float64(maxErr) > bound {
		t.Errorf("signed max error %d > gross-weight bound %.0f", maxErr, bound)
	}
	for item, want := range truth {
		if lb, ub := s.LowerBound(item), s.UpperBound(item); lb > want || ub < want {
			t.Fatalf("item %d: [%d, %d] misses %d", item, lb, ub, want)
		}
		if d := s.Estimate(item) - want; d > maxErr || d < -maxErr {
			t.Fatalf("item %d: estimate off truth %d by %d, beyond MaximumError %d", item, want, d, maxErr)
		}
	}
}

// TestSignedMerge checks the component-wise merge and its degenerate
// cases.
func TestSignedMerge(t *testing.T) {
	a, err := freq.NewSigned[int64](64, freq.WithSeed(44))
	if err != nil {
		t.Fatal(err)
	}
	b, err := freq.NewSigned[int64](64, freq.WithSeed(45))
	if err != nil {
		t.Fatal(err)
	}
	a.Update(1, 100)
	b.Update(1, -40)
	b.Update(2, 70)
	a.Merge(b)
	if got := a.Estimate(1); got != 60 {
		t.Errorf("merged Estimate(1) = %d, want 60", got)
	}
	if got := a.Estimate(2); got != 70 {
		t.Errorf("merged Estimate(2) = %d, want 70", got)
	}
	if a.Merge(nil) != a || a.Merge(a) != a {
		t.Error("degenerate merges must be no-ops returning the receiver")
	}
}

// TestSignedValidation checks that a turnstile summary without counters
// is refused with ErrTooFewCounters.
func TestSignedValidation(t *testing.T) {
	if _, err := freq.NewSigned[int64](0); !errors.Is(err, freq.ErrTooFewCounters) {
		t.Errorf("NewSigned(0) = %v, want ErrTooFewCounters", err)
	}
}

// TestCustomSerDe exercises the SerDe extension point for item types
// without a built-in codec.
type pair struct{ A, B uint32 }

type pairSerDe struct{}

func (pairSerDe) MarshalItem(dst []byte, v pair) []byte {
	dst = append(dst, byte(v.A>>24), byte(v.A>>16), byte(v.A>>8), byte(v.A))
	return append(dst, byte(v.B>>24), byte(v.B>>16), byte(v.B>>8), byte(v.B))
}

func (pairSerDe) UnmarshalItem(data []byte) (pair, error) {
	if len(data) != 8 {
		return pair{}, fmt.Errorf("pair encoding has %d bytes", len(data))
	}
	be := func(b []byte) uint32 {
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	}
	return pair{A: be(data[:4]), B: be(data[4:])}, nil
}

func TestCustomSerDe(t *testing.T) {
	s, err := freq.New[pair](64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(pair{1, 2}, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MarshalBinary(); !errors.Is(err, freq.ErrNoSerDe) {
		t.Fatalf("MarshalBinary without SerDe = %v, want ErrNoSerDe", err)
	}
	s.SetSerDe(pairSerDe{})
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := freq.New[pair](64)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetSerDe(pairSerDe{})
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Estimate(pair{1, 2}) != 100 {
		t.Fatalf("restored estimate = %d", restored.Estimate(pair{1, 2}))
	}
}

// The facade must satisfy the standard library's serialization contracts.
var (
	_ encoding.BinaryMarshaler   = (*freq.Sketch[int64])(nil)
	_ encoding.BinaryUnmarshaler = (*freq.Sketch[int64])(nil)
	_ io.WriterTo                = (*freq.Sketch[string])(nil)
	_ io.ReaderFrom              = (*freq.Sketch[string])(nil)
	_ encoding.BinaryMarshaler   = (*freq.Concurrent[int64])(nil)
	_ fmt.Stringer               = (*freq.Sketch[uint64])(nil)
	_ fmt.Stringer               = freq.Row[uint64]{}
	_ fmt.Stringer               = freq.NoFalseNegatives
)
