// Range-scoped wire protocol tests (RANGE over a durable slot store):
// the historical mirror of the WIN tests, plus the no-store error
// surface and raw-line time parsing.
package server

import (
	"strings"
	"testing"
	"time"

	"repro/freq"
	"repro/freq/store"
)

// startStoredServer boots a server whose window drains into a durable
// store, with deterministic second-aligned slot bounds.
func startStoredServer(t *testing.T, headStart time.Time) (*testServer, *store.Store[int64]) {
	t.Helper()
	st, err := store.Open[int64](t.TempDir(), store.WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2, WindowIntervals: 3, Store: st})
	srv.Windowed().SetRotationSink(st, headStart)
	return srv, st
}

func TestRangeCommandsOverWire(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	srv, _ := startStoredServer(t, base)
	c := dial(t, srv)

	// Interval 1: item 1 x100, item 2 x75.
	if err := c.UpdateBatch([]int64{1, 2, 2}, []int64{100, 50, 25}); err != nil {
		t.Fatal(err)
	}
	srv.Windowed().RotateAt(base.Add(10 * time.Second))
	// Interval 2: item 1 x10. Single updates buffer per connection, so
	// force a flush (any non-update command) before rotating the slot
	// into the store.
	if err := c.Update(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	srv.Windowed().RotateAt(base.Add(20 * time.Second))
	if err := srv.Windowed().SinkErr(); err != nil {
		t.Fatal(err)
	}

	// Full range sees both intervals.
	est, lb, ub, err := c.Range(base, base.Add(20*time.Second)).Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if est != 110 || lb != 110 || ub != 110 {
		t.Fatalf("RANGE EST: (%d, %d, %d), want (110, 110, 110)", est, lb, ub)
	}

	// A range covering only the first interval excludes the second.
	est, _, _, err = c.Range(base, base.Add(10*time.Second)).Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if est != 100 {
		t.Fatalf("sliced RANGE EST: %d, want 100", est)
	}

	rows, err := c.Range(base, base.Add(20*time.Second)).TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Item != 1 || rows[0].Estimate != 110 || rows[1].Item != 2 || rows[1].Estimate != 75 {
		t.Fatalf("RANGE TOPK: %v", rows)
	}

	fi, err := c.Range(base, base.Add(20*time.Second)).FrequentItemsAboveThreshold(80, freq.NoFalseNegatives)
	if err != nil {
		t.Fatal(err)
	}
	if len(fi) != 1 || fi[0].Item != 1 {
		t.Fatalf("RANGE FI: %v", fi)
	}

	sk, err := c.Range(base, base.Add(20*time.Second)).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sk.Estimate(1) != 110 || sk.Estimate(2) != 75 {
		t.Fatalf("RANGE SNAP: est(1)=%d est(2)=%d", sk.Estimate(1), sk.Estimate(2))
	}

	// The live head interval is not yet in the store: a range past the
	// last rotation is empty.
	est, _, _, err = c.Range(base.Add(20*time.Second), base.Add(30*time.Second)).Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 {
		t.Fatalf("unrotated head leaked into RANGE: %d", est)
	}
}

func TestRangeRFC3339AndErrors(t *testing.T) {
	base := time.Unix(1_700_000_000, 0).UTC()
	srv, _ := startStoredServer(t, base)
	c := dial(t, srv)
	if err := c.Update(5, 42); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Stats(); err != nil {
		t.Fatal(err) // flush the buffered single update into the window
	}
	srv.Windowed().RotateAt(base.Add(10 * time.Second))

	// RFC 3339 bounds parse on the raw line protocol.
	resp, err := c.Raw("RANGE " + base.Format(time.RFC3339) + " " + base.Add(time.Minute).Format(time.RFC3339) + " EST 5")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "EST 42 42 42" {
		t.Fatalf("RFC3339 RANGE: %q", resp)
	}

	for _, line := range []string{
		"RANGE",                    // no args
		"RANGE 1 2",                // no subcommand
		"RANGE xyz 2 EST 5",        // bad from
		"RANGE 1 bogus EST 5",      // bad to
		"RANGE 20 10 EST 5",        // inverted range
		"RANGE 10 10 EST 5",        // empty range
		"RANGE 10 20 NOPE 5",       // unknown subcommand
		"RANGE 10 20 EST notanint", // bad item
	} {
		if _, err := c.Raw(line); err == nil {
			t.Fatalf("%q: accepted, want ERR", line)
		}
	}
}

func TestRangeWithoutStore(t *testing.T) {
	srv := startServer(t, Config{MaxCounters: 1024, Shards: 2, WindowIntervals: 3})
	c := dial(t, srv)
	_, _, _, err := c.Range(time.Unix(0, 0), time.Unix(100, 0)).Query(1)
	if err == nil || !strings.Contains(err.Error(), "no store") {
		t.Fatalf("RANGE without store: %v", err)
	}
}
