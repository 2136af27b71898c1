package freq

import "errors"

// Sentinel errors returned by constructors, updates, and decoding. All
// errors constructed by this package match one of these under errors.Is;
// the streaming ReadFrom methods additionally pass through the
// underlying io errors (io.EOF, io.ErrUnexpectedEOF) unchanged when the
// reader runs dry.
var (
	// ErrTooFewCounters rejects a non-positive counter budget.
	ErrTooFewCounters = errors.New("freq: counter budget must be positive")
	// ErrTooManyCounters rejects a counter budget beyond the fast path's
	// maximum table (2^26 slots, ~50M counters).
	ErrTooManyCounters = errors.New("freq: counter budget exceeds maximum table size")
	// ErrBadQuantile rejects a decrement quantile outside (0, 1). Note
	// that 0 is rejected too: the sample-minimum policy is requested
	// explicitly via WithSMIN, never by a magic quantile value.
	ErrBadQuantile = errors.New("freq: decrement quantile outside (0, 1)")
	// ErrBadSampleSize rejects a decrement sample size outside [1, 65536].
	ErrBadSampleSize = errors.New("freq: sample size outside [1, 65536]")
	// ErrBadShards rejects a non-positive shard count.
	ErrBadShards = errors.New("freq: shard count must be positive")
	// ErrNegativeWeight rejects a negative update weight on an unsigned
	// sketch; Signed accepts deletions.
	ErrNegativeWeight = errors.New("freq: negative weight")
	// ErrCorrupt indicates bytes that do not decode to a valid sketch.
	ErrCorrupt = errors.New("freq: corrupt serialized sketch")
	// ErrNoSerDe indicates a marshal or unmarshal of a sketch over an
	// item type with no built-in codec (not int64, uint64, or string) and
	// no SerDe installed via SetSerDe.
	ErrNoSerDe = errors.New("freq: no codec for item type (use SetSerDe)")
	// ErrLengthMismatch rejects a batch whose items and weights slices
	// differ in length.
	ErrLengthMismatch = errors.New("freq: batch items and weights lengths differ")
	// ErrBadBatchSize rejects a non-positive Writer batch size.
	ErrBadBatchSize = errors.New("freq: batch size must be positive")
	// ErrBadIntervals rejects a non-positive windowed interval count.
	ErrBadIntervals = errors.New("freq: interval count must be positive")
	// ErrWriterClosed rejects adds to a Writer after Close.
	ErrWriterClosed = errors.New("freq: writer is closed")
)
