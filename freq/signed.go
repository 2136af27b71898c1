package freq

import (
	"bytes"
	"fmt"
	"io"
	"iter"
	"math"
)

// Signed handles streams with deletions via the strict-turnstile recipe
// from the paper's §1.3 Note: one summary for the positive updates and
// one for the magnitudes of the negative updates, with point estimates
// formed as the difference. By the triangle inequality the error of an
// estimate is at most the sum of the two summaries' errors, i.e.
// proportional to the gross volume Σ|Δ| rather than to the net weight
// N = ΣΔ — suitable when deletions are a small share of the stream.
// It is not safe for concurrent use.
type Signed[T comparable] struct {
	pos *Sketch[T]
	neg *Sketch[T]
}

// NewSigned returns a turnstile-capable pair of sketches, each with
// counter budget k and the given options. The two sides are guaranteed
// distinct hash seeds on every path — a pinned seed (WithSeed) is
// varied deterministically between them, and the default random-seed
// path re-derives the negative side in the (astronomically unlikely)
// event its independent draw collides with the positive side's — so
// the sides' probe behaviour never correlates and estimate differences
// never see systematically paired evictions.
func NewSigned[T comparable](k int, opts ...Option) (*Signed[T], error) {
	cfg, err := resolve(k, opts)
	if err != nil {
		return nil, err
	}
	pos, err := newFromConfig[T](cfg)
	if err != nil {
		return nil, err
	}
	negCfg := cfg
	if cfg.seed != 0 {
		negCfg.seed = deriveSeed(cfg.seed, 1)
	}
	neg, err := newFromConfig[T](negCfg)
	if err != nil {
		return nil, err
	}
	// Assert the sides really landed on distinct seeds — covering the
	// zero-seed edge, where both drew independently — and re-derive the
	// negative side until they differ (deriveSeed varies with i, so the
	// loop terminates; in practice it never runs).
	for i := uint64(1); pos.fast != nil && neg.fast != nil && pos.fast.Seed() == neg.fast.Seed(); i++ {
		negCfg.seed = deriveSeed(pos.fast.Seed(), i)
		if neg, err = newFromConfig[T](negCfg); err != nil {
			return nil, err
		}
	}
	return &Signed[T]{pos: pos, neg: neg}, nil
}

// Update processes a signed weighted update; weight may be negative. A
// weight of math.MinInt64, whose magnitude is unrepresentable, is
// ignored (use UpdateWeightedBatch for an error-reporting path).
func (t *Signed[T]) Update(item T, weight int64) {
	if weight == math.MinInt64 {
		return
	}
	switch {
	case weight > 0:
		_ = t.pos.Update(item, weight)
	case weight < 0:
		_ = t.neg.Update(item, -weight)
	}
}

// UpdateOne processes a unit-weight insertion of item.
func (t *Signed[T]) UpdateOne(item T) { _ = t.pos.Update(item, 1) }

// UpdateBatch processes a slice of unit-weight insertions — batch parity
// with Sketch and Concurrent: the growth/decrement check is amortized
// across the batch on the positive summary.
func (t *Signed[T]) UpdateBatch(items []T) {
	t.pos.UpdateBatch(items)
}

// UpdateWeightedBatch processes the signed updates (items[i], weights[i])
// for every i — the batched turnstile hot path. Weights may be negative
// (deletions); the batch is partitioned by sign, insertions ride the
// positive summary's batch path and deletion magnitudes the negative
// one's, producing exactly the state of the equivalent Update loop (the
// two summaries are independent, so per-side order is all that matters).
// The slices must have equal length (ErrLengthMismatch), and a weight of
// math.MinInt64 — whose magnitude is unrepresentable — rejects the batch
// (ErrNegativeWeight) before any update is applied. Zero weights are
// skipped.
func (t *Signed[T]) UpdateWeightedBatch(items []T, weights []int64) error {
	if len(items) != len(weights) {
		return fmt.Errorf("%w: %d items, %d weights", ErrLengthMismatch, len(items), len(weights))
	}
	var (
		posItems, negItems     []T
		posWeights, negWeights []int64
	)
	for i, w := range weights {
		switch {
		case w > 0:
			posItems = append(posItems, items[i])
			posWeights = append(posWeights, w)
		case w == math.MinInt64:
			return fmt.Errorf("%w: magnitude of %d is unrepresentable", ErrNegativeWeight, w)
		case w < 0:
			negItems = append(negItems, items[i])
			negWeights = append(negWeights, -w)
		}
	}
	if len(posItems) > 0 {
		// Weights on both sides are strictly positive by construction
		// (MinInt64 was rejected above), so neither call can fail.
		_ = t.pos.UpdateWeightedBatch(posItems, posWeights)
	}
	if len(negItems) > 0 {
		_ = t.neg.UpdateWeightedBatch(negItems, negWeights)
	}
	return nil
}

// Estimate returns the difference of the two summaries' estimates. It
// may be negative for items whose deletions were overestimated; callers
// that know final frequencies are non-negative may clamp at zero.
func (t *Signed[T]) Estimate(item T) int64 {
	return t.pos.Estimate(item) - t.neg.Estimate(item)
}

// LowerBound returns a certain lower bound on the true signed frequency.
func (t *Signed[T]) LowerBound(item T) int64 {
	return t.pos.LowerBound(item) - t.neg.UpperBound(item)
}

// UpperBound returns a certain upper bound on the true signed frequency.
func (t *Signed[T]) UpperBound(item T) int64 {
	return t.pos.UpperBound(item) - t.neg.LowerBound(item)
}

// MaximumError returns the additive error bound of any estimate: the sum
// of the two summaries' bands (triangle inequality, §1.3 Note).
func (t *Signed[T]) MaximumError() int64 {
	return t.pos.MaximumError() + t.neg.MaximumError()
}

// GrossWeight returns Σ|Δ|, the quantity the turnstile error guarantee
// is proportional to.
func (t *Signed[T]) GrossWeight() int64 {
	return t.pos.StreamWeight() + t.neg.StreamWeight()
}

// NetWeight returns N = ΣΔ.
func (t *Signed[T]) NetWeight() int64 {
	return t.pos.StreamWeight() - t.neg.StreamWeight()
}

// StreamWeight returns the net stream weight N = ΣΔ — the quantity
// (φ, ε)-heavy-hitter thresholds φ·N scale against. It is an alias of
// NetWeight, satisfying the Queryable interface; the turnstile error
// guarantee itself is proportional to GrossWeight.
func (t *Signed[T]) StreamWeight() int64 { return t.NetWeight() }

// All iterates the rows of every item tracked by the positive summary,
// with signed estimates and bounds (the §1.3 differences). An item whose
// insertions were evicted — or that only ever saw deletions — is not
// yielded; such items cannot qualify as frequent. Order is unspecified.
func (t *Signed[T]) All() iter.Seq2[T, Row[T]] {
	return func(yield func(T, Row[T]) bool) {
		for item, p := range t.pos.All() {
			// The positive side's values are already in hand; only the
			// negative side needs lookups.
			r := Row[T]{
				Item:       item,
				Estimate:   p.Estimate - t.neg.Estimate(item),
				LowerBound: p.LowerBound - t.neg.UpperBound(item),
				UpperBound: p.UpperBound - t.neg.LowerBound(item),
			}
			if !yield(item, r) {
				return
			}
		}
	}
}

// Query starts a composable query over the signed summary.
func (t *Signed[T]) Query() *Query[T] { return From[T](t) }

// Merge folds other into t component-wise (Algorithm 5 on each side,
// each riding the same bulk merge kernel as unsigned sketches) and
// returns t.
func (t *Signed[T]) Merge(other *Signed[T]) *Signed[T] {
	if other == nil || other == t {
		return t
	}
	t.pos.Merge(other.pos)
	t.neg.Merge(other.neg)
	return t
}

// Serialization parity with Sketch: a Signed summary encodes as its two
// sign summaries back to back (positive, then negative), each in the
// ordinary self-delimiting sketch format, each through the same bulk
// (de)serialization kernels — there is no signed-specific item replay.

// WriteTo encodes both sign summaries to w, implementing io.WriterTo;
// on the fast path the encoding buffers are pooled, so steady-state
// calls allocate nothing.
func (t *Signed[T]) WriteTo(w io.Writer) (int64, error) {
	n1, err := t.pos.WriteTo(w)
	if err != nil {
		return n1, err
	}
	n2, err := t.neg.WriteTo(w)
	return n1 + n2, err
}

// AppendBinary implements encoding.BinaryAppender: both sign summaries
// appended to dst.
func (t *Signed[T]) AppendBinary(dst []byte) ([]byte, error) {
	dst, err := t.pos.AppendBinary(dst)
	if err != nil {
		return dst, err
	}
	return t.neg.AppendBinary(dst)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *Signed[T]) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(nil)
}

// ReadFrom decodes one serialized Signed summary from r, consuming
// exactly the two sketches' bytes and replacing the receiver's state.
// All-or-nothing: on error the previous state is restored.
func (t *Signed[T]) ReadFrom(r io.Reader) (int64, error) {
	savedPos, savedNeg := *t.pos, *t.neg
	n1, err := t.pos.ReadFrom(r)
	if err != nil {
		*t.pos = savedPos
		return n1, err
	}
	n2, err := t.neg.ReadFrom(r)
	if err != nil {
		*t.pos, *t.neg = savedPos, savedNeg
		return n1 + n2, err
	}
	return n1 + n2, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler: data must hold
// exactly the two sign summaries (ErrCorrupt otherwise). All-or-nothing:
// on error the previous state is kept. The decode is ReadFrom's (which
// owns the rollback of a half-decoded pair); only the trailing-bytes
// strictness is added here.
func (t *Signed[T]) UnmarshalBinary(data []byte) error {
	savedPos, savedNeg := *t.pos, *t.neg
	r := bytes.NewReader(data)
	if _, err := t.ReadFrom(r); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if r.Len() != 0 {
		*t.pos, *t.neg = savedPos, savedNeg
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	return nil
}

func (t *Signed[T]) String() string {
	return fmt.Sprintf("freq.Signed{pos: %s, neg: %s}", t.pos, t.neg)
}
