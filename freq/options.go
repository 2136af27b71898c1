package freq

import (
	"fmt"

	"repro/internal/core"
)

// Option configures a sketch at construction. The same options apply to
// New, NewConcurrent, and NewSigned; options that do not pertain to a
// backend are recorded but inert there (see each option's note).
type Option func(*config) error

// config is the resolved cross-backend configuration. It owns the
// translation between the facade's single convention and the two internal
// ones: here, SMIN is an explicit flag, never a magic quantile value.
type config struct {
	k          int
	smin       bool
	quantile   float64 // in (0, 1); meaningful only when !smin
	sampleSize int
	seed       uint64
	shards     int
	noGrowth   bool
	batchSize  int
}

func resolve(k int, opts []Option) (config, error) {
	cfg := config{
		k:          k,
		quantile:   core.DefaultQuantile,
		sampleSize: core.DefaultSampleSize,
		shards:     defaultShards,
		batchSize:  DefaultBatchSize,
	}
	if k < 1 {
		return cfg, fmt.Errorf("%w: %d", ErrTooFewCounters, k)
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// coreOptions maps the resolved configuration onto the fast backend's
// conventions: SMIN travels as the core sentinel QuantileMin (-1), since
// a zero core quantile would silently select the default instead.
// Budgets below the smallest supported table round up rather than error.
func (c config) coreOptions() core.Options {
	q := c.quantile
	if c.smin {
		q = core.QuantileMin
	}
	k := c.k
	if k < core.MinCounters {
		k = core.MinCounters
	}
	return core.Options{
		MaxCounters:   k,
		Quantile:      q,
		SampleSize:    c.sampleSize,
		Seed:          c.seed,
		DisableGrowth: c.noGrowth,
	}
}

// itemsQuantile maps the resolved configuration onto the generic
// backend's convention, where quantile 0 itself means SMIN.
func (c config) itemsQuantile() float64 {
	if c.smin {
		return 0
	}
	return c.quantile
}

// WithQuantile selects the decrement quantile within the sample, strictly
// between 0 and 1; larger quantiles trade accuracy for update speed
// (§4.4). The default 0.5 is SMED, the paper's headline configuration.
// Use WithSMIN for the sample minimum — 0 is not accepted here.
func WithQuantile(q float64) Option {
	return func(c *config) error {
		if q <= 0 || q >= 1 {
			return fmt.Errorf("%w: %v", ErrBadQuantile, q)
		}
		c.smin = false
		c.quantile = q
		return nil
	}
}

// WithSMIN decrements by the sample minimum — the accuracy-first variant
// the paper recommends when space and error dominate speed concerns
// (§4.3).
func WithSMIN() Option {
	return func(c *config) error {
		c.smin = true
		return nil
	}
}

// WithSampleSize sets ℓ, the number of counters sampled per decrement
// (default 1024, the §2.3.2 choice), between 1 and 65536.
func WithSampleSize(l int) Option {
	return func(c *config) error {
		if l < 1 || l > core.MaxSampleSize {
			return fmt.Errorf("%w: %d", ErrBadSampleSize, l)
		}
		c.sampleSize = l
		return nil
	}
}

// WithSeed pins the hash seed and sampling PRNG for reproducibility. The
// default (0) draws an independent random seed per sketch, which also
// keeps merging safe against the §3.2 shared-hash-function caveat. The
// generic backend hashes through Go's runtime map and ignores the seed.
//
// Multi-sketch front-ends never let a pinned seed correlate their
// internals: NewSigned derives a distinct seed per side (and asserts
// the sides differ even on the zero-seed random path), and
// NewConcurrentWindowed derives a distinct seed per ring slot. Pinning
// the seed therefore reproduces each composite exactly without ever
// giving two of its member sketches identical probe behaviour.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// defaultShards is NewConcurrent's shard count when WithShards is not
// given: enough lanes for typical server core counts without bloating
// small budgets.
const defaultShards = 8

// WithShards sets the shard count for NewConcurrent (rounded up to a
// power of two; default 8). New and NewSigned build unsharded sketches
// and ignore it.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: %d", ErrBadShards, n)
		}
		c.shards = n
		return nil
	}
}

// DefaultBatchSize is a Writer's buffer capacity when WithBatchSize is
// not given: large enough to amortize shard locking to noise, small
// enough that a flush stays in cache.
const DefaultBatchSize = 1024

// WithBatchSize sets how many (item, weight) pairs a Writer buffers
// before flushing automatically (default DefaultBatchSize). Sketch
// constructors record it but take no behaviour from it.
func WithBatchSize(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: %d", ErrBadBatchSize, n)
		}
		c.batchSize = n
		return nil
	}
}

// WithoutGrowth starts the fast path's table at full size instead of
// growing from a small table as items arrive — useful for benchmarks
// isolating steady-state update cost. The generic backend has no table
// and ignores it.
func WithoutGrowth() Option {
	return func(c *config) error {
		c.noGrowth = true
		return nil
	}
}
