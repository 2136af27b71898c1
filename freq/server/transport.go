package server

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"
)

// TransportError is the typed failure of the wire itself — a dial, read,
// write, deadline, or framing-desync error, including a reply that does
// not parse, whose unread rest would otherwise be taken for the next
// answer — as distinct from a protocol error (the server answered ERR,
// or sent a snapshot blob that does not decode). The client's retry
// machinery keys off this distinction: only transport failures are
// retried, and only for idempotent reads.
// Callers of the non-idempotent ingest paths (Update, UpdateBatch, the
// pairs frames under them) receive a *TransportError on wire failure so
// they can decide for themselves whether re-sending risks double
// counting — the client never makes that call for them.
type TransportError struct {
	// Op is the high-level operation that failed ("EST", "SNAP",
	// "PAIRS", "DIAL", ...).
	Op string
	// Attempts is how many round trips were made before giving up
	// (1 means the first try failed and no retry was configured or
	// permitted).
	Attempts int
	// Err is the underlying error from the net or io layer.
	Err error
}

func (e *TransportError) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("server: transport: %v", e.Err)
	}
	return fmt.Sprintf("server: transport: %s failed after %d attempt(s): %v", e.Op, e.Attempts, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Timeout reports whether the underlying failure was a deadline firing,
// so callers can distinguish a slow peer from a dead one.
func (e *TransportError) Timeout() bool {
	var ne net.Error
	return errors.As(e.Err, &ne) && ne.Timeout()
}

// transportErr wraps err as a TransportError unless it already is one.
func transportErr(err error) *TransportError {
	if err == nil {
		return nil
	}
	var te *TransportError
	if errors.As(err, &te) {
		return te
	}
	return &TransportError{Err: err}
}

// isTransport reports whether err is (or wraps) a TransportError.
func isTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// jitteredBackoff returns the sleep before retry number attempt
// (1-based): base doubled per attempt, capped at 64x, then jittered
// uniformly over [50%, 150%] so a fleet of clients retrying against the
// same recovered node doesn't stampede in lockstep.
func jitteredBackoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	d := base << shift
	return d/2 + rand.N(d)
}
