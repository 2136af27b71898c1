// Cross-framing conformance suite: the text and binary framings are two
// encodings of ONE protocol, and this file locks them together. Two
// servers with identical geometry and a pinned Config.Seed receive the
// same update stream — one over text lines, one over binary frames —
// and every wire command must then produce identical replies on both,
// with the summaries themselves byte-identical under SNAP. Any framing
// divergence (a decode bug, a reply formatting drift, a batching path
// that reorders per-shard updates) breaks these tests.
package server

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/freq"
	"repro/freq/store"
	"repro/freq/tenant"
)

// conformanceSeed pins both servers' sketch hash seeds so equal update
// streams yield byte-identical summary state.
const conformanceSeed = 0x5eed_c0de_0b5e_55ed

// conformancePair is both sides of the suite: twin servers (same seed,
// same geometry, twin stores rotated in lockstep) with one text client
// and one binary client.
type conformancePair struct {
	textSrv, binSrv *testServer
	text, bin       *Client[int64]
	clock           time.Time
}

func newConformancePair(t *testing.T) *conformancePair {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	mk := func() *testServer {
		st, err := store.Open[int64](t.TempDir(), store.WithPartitionDuration(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		// Twin tenant registries: the same seed and the same tenant
		// creation order yield byte-identical per-tenant summaries, so
		// TENANT SNAP blobs compare across framings exactly like the
		// global SNAP.
		mgr, err := tenant.New[int64](tenant.Config{
			MaxCounters:     512,
			Shards:          2,
			WindowIntervals: 3,
			Seed:            conformanceSeed,
			MaxTenants:      16,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := startServer(t, Config{
			MaxCounters:     1024,
			Shards:          4,
			WindowIntervals: 3,
			Store:           st,
			Seed:            conformanceSeed,
			Tenants:         mgr.SetSink(st),
		})
		srv.Windowed().SetRotationSink(st, base)
		return srv
	}
	p := &conformancePair{textSrv: mk(), binSrv: mk(), clock: base}
	p.text = dial(t, p.textSrv)
	p.bin = dial(t, p.binSrv)
	up, err := p.bin.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if !up || !p.bin.Binary() {
		t.Fatal("binary client failed to negotiate the binary framing")
	}
	if p.text.Binary() {
		t.Fatal("text client unexpectedly negotiated binary")
	}
	return p
}

// each runs f against both clients.
func (p *conformancePair) each(f func(c *Client[int64]) error) error {
	if err := f(p.text); err != nil {
		return err
	}
	return f(p.bin)
}

// sync flushes both connections' buffered updates (writer + windowed)
// by issuing a read command, so both servers hold the full stream
// before a rotation or a state comparison.
func (p *conformancePair) sync(t *testing.T) {
	t.Helper()
	if err := p.each(func(c *Client[int64]) error {
		_, _, err := c.Stats()
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// rotate advances both windows at the same instant and drains both
// sinks, after syncing so buffered updates land in the retiring slot.
func (p *conformancePair) rotate(t *testing.T) {
	t.Helper()
	p.sync(t)
	p.clock = p.clock.Add(10 * time.Second)
	p.textSrv.Windowed().RotateAt(p.clock)
	p.binSrv.Windowed().RotateAt(p.clock)
	if err := p.textSrv.Windowed().SinkErr(); err != nil {
		t.Fatal(err)
	}
	if err := p.binSrv.Windowed().SinkErr(); err != nil {
		t.Fatal(err)
	}
}

// rawBoth runs one raw command line on both framings and asserts the
// first reply line (or the ERR) is identical. Only commands with
// single-line replies go through here.
func (p *conformancePair) rawBoth(t *testing.T, line string) {
	t.Helper()
	tr, terr := p.text.Raw(line)
	br, berr := p.bin.Raw(line)
	if (terr == nil) != (berr == nil) {
		t.Fatalf("%q: error parity broke: text err %v, binary err %v", line, terr, berr)
	}
	if terr != nil {
		if terr.Error() != berr.Error() {
			t.Fatalf("%q: divergent errors:\n  text:   %v\n  binary: %v", line, terr, berr)
		}
		return
	}
	if tr != br {
		t.Fatalf("%q: divergent replies:\n  text:   %q\n  binary: %q", line, tr, br)
	}
}

// snapBlob fetches the raw SNAP blob (any SNAP-family command) through
// a client, whichever framing it speaks.
func snapBlob(t *testing.T, c *Client[int64], cmd string) []byte {
	t.Helper()
	resp, err := c.Raw(cmd)
	if err != nil {
		t.Fatalf("%q: %v", cmd, err)
	}
	var n int
	if _, err := fmt.Sscanf(resp, "SNAP %d", &n); err != nil {
		t.Fatalf("%q: bad snapshot header %q", cmd, resp)
	}
	blob := make([]byte, n)
	if err := c.readBlobInto(blob); err != nil {
		t.Fatal(err)
	}
	return blob
}

// assertSnapEqual asserts a SNAP-family command returns byte-identical
// blobs over both framings — the summary-state equality proof.
func (p *conformancePair) assertSnapEqual(t *testing.T, cmd string) {
	t.Helper()
	tb := snapBlob(t, p.text, cmd)
	bb := snapBlob(t, p.bin, cmd)
	if !bytes.Equal(tb, bb) {
		t.Fatalf("%q: snapshot blobs diverge (%d vs %d bytes)", cmd, len(tb), len(bb))
	}
}

// conformanceStream is the deterministic update mix both framings
// ingest: skewed single updates plus batches, exercising both the U
// path and the block path (text UB lines vs binary pairs frames).
func (p *conformancePair) ingest(t *testing.T) {
	t.Helper()
	if err := p.each(func(c *Client[int64]) error {
		for i := 0; i < 200; i++ {
			if err := c.Update(int64(i%17), int64(1+i%7)); err != nil {
				return err
			}
		}
		items := make([]int64, 1500)
		weights := make([]int64, 1500)
		for i := range items {
			items[i] = int64(i * i % 301)
			weights[i] = int64(1 + i%11)
		}
		return c.UpdateBatch(items, weights)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestConformanceAllCommands(t *testing.T) {
	p := newConformancePair(t)

	// Interval 1.
	p.ingest(t)
	p.rotate(t)
	// Interval 2: a lighter second round so WIN widths differ in content.
	if err := p.each(func(c *Client[int64]) error {
		return c.UpdateBatch([]int64{1, 2, 3, 301, 302}, []int64{1000, 500, 250, 125, 60})
	}); err != nil {
		t.Fatal(err)
	}
	p.rotate(t)
	// Interval 3 stays live (un-rotated) so WIN sees a current slot too.
	if err := p.each(func(c *Client[int64]) error { return c.Update(42, 4242) }); err != nil {
		t.Fatal(err)
	}
	p.sync(t)

	// Single-line-reply commands: identical replies, byte for byte.
	for _, line := range []string{
		"EST 1", "EST 2", "EST 42", "EST 999", "Q 3",
		"STATS",
		"ROTATE", // advances both windows identically — still conformant after
		"U 5 5",
	} {
		p.rawBoth(t, line)
	}
	p.sync(t)

	// Row-valued commands: typed replies compare deeply (the wire text is
	// identical iff the rows are, since both framings share writeRows).
	type rowsFn func(c *Client[int64]) ([]freq.Row[int64], error)
	for name, fn := range map[string]rowsFn{
		"TOPK 10": func(c *Client[int64]) ([]freq.Row[int64], error) { return c.TopK(10) },
		"FI NFP": func(c *Client[int64]) ([]freq.Row[int64], error) {
			return c.FrequentItemsAboveThreshold(100, freq.NoFalsePositives)
		},
		"FI NFN": func(c *Client[int64]) ([]freq.Row[int64], error) {
			return c.FrequentItemsAboveThreshold(100, freq.NoFalseNegatives)
		},
		"HH":       func(c *Client[int64]) ([]freq.Row[int64], error) { return c.HeavyHitters(0.01) },
		"WIN TOPK": func(c *Client[int64]) ([]freq.Row[int64], error) { return c.Window(3).TopK(10) },
		"WIN FI": func(c *Client[int64]) ([]freq.Row[int64], error) {
			return c.Window(2).FrequentItemsAboveThreshold(100, freq.NoFalseNegatives)
		},
		"RANGE TOPK": func(c *Client[int64]) ([]freq.Row[int64], error) {
			return c.Range(p.clock.Add(-time.Hour), p.clock.Add(time.Hour)).TopK(10)
		},
		"RANGE FI": func(c *Client[int64]) ([]freq.Row[int64], error) {
			return c.Range(p.clock.Add(-time.Hour), p.clock.Add(time.Hour)).FrequentItemsAboveThreshold(50, freq.NoFalseNegatives)
		},
	} {
		tr, terr := fn(p.text)
		br, berr := fn(p.bin)
		if terr != nil || berr != nil {
			t.Fatalf("%s: text err %v, binary err %v", name, terr, berr)
		}
		if !reflect.DeepEqual(tr, br) {
			t.Fatalf("%s: divergent rows:\n  text:   %v\n  binary: %v", name, tr, br)
		}
	}

	// WIN EST and RANGE EST: single-line replies via raw lines.
	p.rawBoth(t, "WIN 3 EST 1")
	p.rawBoth(t, "WIN 1 EST 42")
	from, to := p.clock.Add(-time.Hour).Unix(), p.clock.Add(time.Hour).Unix()
	p.rawBoth(t, fmt.Sprintf("RANGE %d %d EST 1", from, to))

	// Summary state: SNAP and WIN SNAP blobs must be byte-identical —
	// the two servers hold the same bytes after the two framings' ingest
	// paths. (RANGE SNAP is excluded: the store's merge accumulator
	// draws a fresh random seed per server, so its blob encoding is not
	// byte-stable even though its query answers are — those are asserted
	// above.)
	p.assertSnapEqual(t, "SNAP")
	p.assertSnapEqual(t, "WIN 3 SNAP")
	p.assertSnapEqual(t, "WIN 1 SNAP")

	// Error surface: malformed commands answer identically.
	for _, line := range []string{
		"EST",
		"EST notanumber",
		"TOPK 0",
		"FI 9 100",
		"FI NFP notanumber",
		"HH 5000",
		"WIN 0 EST 1",
		"WIN 2 NOPE 1",
		"RANGE 20 10 EST 1",
		"RANGE a b EST 1",
		"NOSUCH 1 2 3",
	} {
		p.rawBoth(t, line)
	}

	// RESET clears both; both report empty identically after.
	if err := p.each(func(c *Client[int64]) error { return c.Reset() }); err != nil {
		t.Fatal(err)
	}
	p.rawBoth(t, "STATS")
	p.assertSnapEqual(t, "SNAP")
}

// TestConformanceTenantCommands extends the suite to the TENANT scope:
// twin seeded registries ingest identical per-tenant streams over the
// two framings (text UB blocks vs v2 tenant-id pairs frames), and every
// TENANT-scoped command must answer byte-identically — including SNAP
// blob equality per tenant, the EVICT→store→RANGE durability loop, and
// the tenant error surface.
func TestConformanceTenantCommands(t *testing.T) {
	p := newConformancePair(t)

	// Identical tenant creation order on both servers pins the per-build
	// seed derivation, so each tenant's twin summaries share hash seeds.
	if err := p.each(func(c *Client[int64]) error {
		alice, err := c.Tenant("alice")
		if err != nil {
			return err
		}
		bob, err := c.Tenant("bob")
		if err != nil {
			return err
		}
		for i := 0; i < 150; i++ {
			if err := alice.Update(int64(i%19), int64(1+i%5)); err != nil {
				return err
			}
		}
		items := make([]int64, 800)
		weights := make([]int64, 800)
		for i := range items {
			items[i] = int64(i * 3 % 97)
			weights[i] = int64(1 + i%13)
		}
		if err := alice.UpdateBatch(items, weights); err != nil {
			return err
		}
		return bob.UpdateBatch([]int64{5, 6, 7}, []int64{500, 60, 7})
	}); err != nil {
		t.Fatal(err)
	}

	// Single-line replies, byte for byte.
	for _, line := range []string{
		"TENANT alice EST 1", "TENANT alice EST 96", "TENANT alice Q 999",
		"TENANT bob EST 5",
		"TENANT alice STATS", "TENANT bob STATS",
		"TENANT alice ROTATE",
		"TENANT alice U 4 44",
		"TENANT bob RESET",
	} {
		p.rawBoth(t, line)
	}

	// Row-valued commands compare deeply through the typed client.
	type rowsFn func(tc *Client[int64]) ([]freq.Row[int64], error)
	for name, fn := range map[string]rowsFn{
		"TENANT TOPK": func(tc *Client[int64]) ([]freq.Row[int64], error) { return tc.TopK(10) },
		"TENANT FI": func(tc *Client[int64]) ([]freq.Row[int64], error) {
			return tc.FrequentItemsAboveThreshold(50, freq.NoFalseNegatives)
		},
		"TENANT HH":       func(tc *Client[int64]) ([]freq.Row[int64], error) { return tc.HeavyHitters(0.01) },
		"TENANT WIN TOPK": func(tc *Client[int64]) ([]freq.Row[int64], error) { return tc.Window(2).TopK(10) },
	} {
		ta, err1 := p.text.Tenant("alice")
		ba, err2 := p.bin.Tenant("alice")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		tr, terr := fn(ta)
		br, berr := fn(ba)
		if terr != nil || berr != nil {
			t.Fatalf("%s: text err %v, binary err %v", name, terr, berr)
		}
		if !reflect.DeepEqual(tr, br) {
			t.Fatalf("%s: divergent rows:\n  text:   %v\n  binary: %v", name, tr, br)
		}
	}

	// Summary state per tenant: byte-identical blobs across framings.
	p.assertSnapEqual(t, "TENANT alice SNAP")
	p.assertSnapEqual(t, "TENANT bob SNAP")
	p.assertSnapEqual(t, "TENANT alice WIN 2 SNAP")

	// EVICT flushes through the seeded sink on both servers; RANGE then
	// answers from the tenant's store partitions. (Blob-level RANGE
	// SNAP comparison is excluded for the same reason as the global
	// suite: the store's merge accumulator seeds are per-server.)
	p.rawBoth(t, "TENANT alice EVICT")
	from := time.Now().Add(-time.Hour).Unix()
	to := time.Now().Add(time.Hour).Unix()
	p.rawBoth(t, fmt.Sprintf("TENANT alice RANGE %d %d EST 1", from, to))
	p.rawBoth(t, fmt.Sprintf("TENANT alice RANGE %d %d EST 96", from, to))
	{
		ta, _ := p.text.Tenant("alice")
		ba, _ := p.bin.Tenant("alice")
		tr, terr := ta.Range(time.Unix(from, 0), time.Unix(to, 0)).TopK(10)
		br, berr := ba.Range(time.Unix(from, 0), time.Unix(to, 0)).TopK(10)
		if terr != nil || berr != nil {
			t.Fatalf("TENANT RANGE TOPK: text err %v, binary err %v", terr, berr)
		}
		if !reflect.DeepEqual(tr, br) {
			t.Fatalf("TENANT RANGE TOPK diverged:\n  text:   %v\n  binary: %v", tr, br)
		}
	}

	// Error surface: malformed tenant commands answer identically.
	for _, line := range []string{
		"TENANT",
		"TENANT alice",
		"TENANT alice NOPE 1",
		"TENANT alice U 1",
		"TENANT alice U x y",
		"TENANT alice EVICT extra",
		"TENANT alice WIN 0 EST 1",
		"TENANT ghost EVICT",
		"TENANT alice TOPK 0",
	} {
		p.rawBoth(t, line)
	}
}

// TestConformanceBatchReplyParity pins the batch acknowledgement shape:
// a binary pairs frame answers exactly the text UB reply ("OK <n>"),
// and both block paths reject a negative weight with the same ERR line
// and the whole block untouched.
func TestConformanceBatchReplyParity(t *testing.T) {
	p := newConformancePair(t)
	if err := p.each(func(c *Client[int64]) error {
		return c.UpdateBatch([]int64{10, 20, 30}, []int64{1, 2, 3})
	}); err != nil {
		t.Fatal(err)
	}
	// Negative weight: all-or-nothing on both framings, with one reply.
	err1 := p.text.UpdateBatch([]int64{40, 50}, []int64{5, -1})
	err2 := p.bin.UpdateBatch([]int64{40, 50}, []int64{5, -1})
	if err1 == nil || err2 == nil {
		t.Fatalf("negative batch accepted: text err %v, binary err %v", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("rejected block answers differ by framing:\n  text:   %v\n  binary: %v", err1, err2)
	}
	p.sync(t)
	p.rawBoth(t, "EST 40")
	p.rawBoth(t, "EST 10")
	p.assertSnapEqual(t, "SNAP")
	tw := p.textSrv.Sketch().StreamWeight()
	bw := p.binSrv.Sketch().StreamWeight()
	if tw != 6 || bw != 6 {
		t.Fatalf("stream weights after rejected block: text %d, binary %d, want 6", tw, bw)
	}
}
