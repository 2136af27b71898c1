// Scoped client handles: Tenant, Window and Range derive handles that
// send every verb behind their scope prefix over the parent's
// connection. These tests drive the handles over every framing.
package server

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/freq/store"
	"repro/freq/tenant"
)

// framings are the three ways a client talks to a server.
var framings = []string{"text", "bin2", "bin1"}

// dialFraming dials srv and settles the connection on one framing:
// "text", "bin2" (negotiated), or "bin1" (pinned by an explicit
// HELLO BIN 1, where a v2-unaware server would leave a client).
func dialFraming(t *testing.T, srv *testServer, framing string) *Client[int64] {
	t.Helper()
	c := dial(t, srv)
	switch framing {
	case "bin2":
		if up, err := c.Negotiate(); err != nil || !up || c.BinaryVersion() != 2 {
			t.Fatalf("negotiate BIN 2: up=%v ver=%d err=%v", up, c.BinaryVersion(), err)
		}
	case "bin1":
		if resp, err := c.Raw("HELLO BIN 1"); err != nil || resp != "HELLO BIN 1" {
			t.Fatalf("HELLO BIN 1: %q, %v", resp, err)
		}
		c.bin, c.binVer = true, 1
	}
	return c
}

// startScopedServer boots a server with a window and tenants whose
// evictions persist to the store, so every scope is servable.
func startScopedServer(t *testing.T) *testServer {
	t.Helper()
	st, err := store.Open[int64](t.TempDir(), store.WithPartitionDuration(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mgr := newTestManager(t, tenant.Config{WindowIntervals: 3})
	return startServer(t, Config{
		MaxCounters: 512, Shards: 2, WindowIntervals: 3,
		Store: st, Tenants: mgr.SetSink(st),
	})
}

// TestScopedHandlePercentTenantID drives a tenant whose id contains '%'
// — a legal id — through every verb family. A handle that spliced its
// scope into a format string would turn "50%off" into formatting
// directives and corrupt every command it sends.
func TestScopedHandlePercentTenantID(t *testing.T) {
	for _, framing := range framings {
		t.Run(framing, func(t *testing.T) {
			srv := startScopedServer(t)
			c := dialFraming(t, srv, framing)
			h, err := c.Tenant("50%off")
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Update(7, 100); err != nil {
				t.Fatal(err)
			}
			if err := h.UpdateBatch([]int64{7, 8}, []int64{10, 20}); err != nil {
				t.Fatal(err)
			}
			if est, lb, ub, err := h.Query(7); err != nil || est != 110 || lb != 110 || ub != 110 {
				t.Fatalf("Query(7) = %d [%d, %d], %v; want 110 exact", est, lb, ub, err)
			}
			rows, err := h.TopK(2)
			if err != nil || len(rows) != 2 || rows[0].Item != 7 || rows[0].Estimate != 110 || rows[1].Item != 8 {
				t.Fatalf("TopK(2) = %v, %v", rows, err)
			}
			sk, err := h.Snapshot()
			if err != nil || sk.Estimate(7) != 110 || sk.StreamWeight() != 130 {
				t.Fatalf("Snapshot: %v, %v", sk, err)
			}
			rows, err = h.Window(1).TopK(1)
			if err != nil || len(rows) != 1 || rows[0].Item != 7 || rows[0].Estimate != 110 {
				t.Fatalf("Window(1).TopK(1) = %v, %v", rows, err)
			}
			if err := h.Evict(); err != nil {
				t.Fatal(err)
			}
			from, to := time.Now().Add(-time.Hour), time.Now().Add(time.Hour)
			if est, _, _, err := h.Range(from, to).Query(7); err != nil || est != 110 {
				t.Fatalf("Range.Query(7) after evict = %d, %v; want 110", est, err)
			}

			// The global scope is untouched, and the only tenant the
			// registry ever saw is "50%off" itself (recreated by the
			// RANGE read after the eviction).
			if est, _, _, err := c.Query(7); err != nil || est != 0 {
				t.Fatalf("global Query(7) = %d, %v; want 0", est, err)
			}
			st, err := c.StatsFull()
			if err != nil || st.N != 0 || st.Tenants != 1 || st.TenantEvictions != 1 {
				t.Fatalf("global StatsFull = %+v, %v", st, err)
			}
		})
	}
}

// TestWindowAndRangeHandlesRejectUpdates pins that Update and
// UpdateBatch through a Window or Range handle fail locally — nothing
// reaches the wire, so no summary changes and the stream stays in step.
func TestWindowAndRangeHandlesRejectUpdates(t *testing.T) {
	for _, framing := range framings[:2] {
		t.Run(framing, func(t *testing.T) {
			srv := startScopedServer(t)
			c := dialFraming(t, srv, framing)
			if err := c.Update(1, 5); err != nil {
				t.Fatal(err)
			}
			alice, err := c.Tenant("alice")
			if err != nil {
				t.Fatal(err)
			}
			if err := alice.Update(1, 7); err != nil {
				t.Fatal(err)
			}
			from, to := time.Now().Add(-time.Hour), time.Now().Add(time.Hour)
			for _, h := range []*Client[int64]{c.Window(3), c.Range(from, to), alice.Window(1), alice.Range(from, to)} {
				if err := h.Update(1, 100); err == nil {
					t.Fatalf("%q: Update accepted", h.scope)
				}
				if err := h.UpdateBatch([]int64{1, 2}, []int64{100, 200}); err == nil {
					t.Fatalf("%q: UpdateBatch accepted", h.scope)
				}
			}
			if n, _, err := c.Stats(); err != nil || n != 5 {
				t.Fatalf("global weight = %d, %v; want 5", n, err)
			}
			if est, _, _, err := c.Window(3).Query(1); err != nil || est != 5 {
				t.Fatalf("global window Query(1) = %d, %v; want 5", est, err)
			}
			if n, _, err := alice.Stats(); err != nil || n != 7 {
				t.Fatalf("alice weight = %d, %v; want 7", n, err)
			}
		})
	}
}

// TestScopedHandlesCompose pins the scope prefix each derivation sends:
// tenant and time scopes compose in either order, and a window or range
// replaces the previous one.
func TestScopedHandlesCompose(t *testing.T) {
	c := NewClient[int64](nil)
	from, to := time.Unix(100, 0), time.Unix(200, 0)
	a, err := c.Tenant("a")
	if err != nil {
		t.Fatal(err)
	}
	wa, err := c.Window(3).Tenant("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h            *Client[int64]
		scope, label string
	}{
		{c, "", ""},
		{c.Window(3), "WIN 3 ", "WIN "},
		{c.Range(from, to), "RANGE 100 200 ", "RANGE "},
		{a, "TENANT a ", "TENANT "},
		{a.Window(2), "TENANT a WIN 2 ", "TENANT WIN "},
		{wa, "TENANT a WIN 3 ", "TENANT WIN "},
		{a.Window(2).Range(from, to), "TENANT a RANGE 100 200 ", "TENANT RANGE "},
	} {
		if tc.h.scope != tc.scope || tc.h.label != tc.label {
			t.Errorf("scope %q label %q, want %q %q", tc.h.scope, tc.h.label, tc.scope, tc.label)
		}
	}
	if _, err := c.Tenant("bad id"); err == nil {
		t.Fatal("Tenant accepted an id with a space")
	}
	if a.Window(1).clientConn != c.clientConn {
		t.Fatal("a derived handle does not share its parent's connection")
	}
}

// TestHostileTopKCountListsEveryRow sends TOPK counts far past any
// summary's size, in the live, window and tenant scopes. Each reply
// must list every row, the same reply as TOPK of the row count, and the
// connection must stay usable: a count from the wire never sizes an
// allocation.
func TestHostileTopKCountListsEveryRow(t *testing.T) {
	const distinct = 300
	items, weights := make([]int64, distinct), make([]int64, distinct)
	for i := range items {
		items[i], weights[i] = int64(i), int64(1+i%7)
	}
	for _, framing := range framings[:2] {
		t.Run(framing, func(t *testing.T) {
			srv := startScopedServer(t)
			c := dialFraming(t, srv, framing)
			a, err := c.Tenant("a")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.UpdateBatch(items, weights); err != nil {
				t.Fatal(err)
			}
			if err := a.UpdateBatch(items, weights); err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				cmd string
				h   *Client[int64]
				n   int
			}{
				{"TOPK", c, math.MaxInt},
				{"WIN 1 TOPK", c.Window(1), 1 << 31},
				{"TENANT a TOPK", a, math.MaxInt},
			} {
				got, err := tc.h.TopK(tc.n)
				if err != nil {
					t.Fatalf("%s %d: %v", tc.cmd, tc.n, err)
				}
				want, err := tc.h.TopK(distinct)
				if err != nil || len(want) != distinct {
					t.Fatalf("%s %d = %d rows, %v; want %d", tc.cmd, distinct, len(want), err, distinct)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s %d differs from %s %d:\n%v\n%v", tc.cmd, tc.n, tc.cmd, distinct, got, want)
				}
			}
			if err := c.Update(7, 1); err != nil {
				t.Fatal(err)
			}
			if est, _, _, err := c.Query(7); err != nil || est != 2 {
				t.Fatalf("Query(7) after the hostile reads = %d, %v; want 2", est, err)
			}
		})
	}
}
