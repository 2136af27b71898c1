package server

import (
	"errors"
	"fmt"
	"iter"
	"sync"
	"time"

	"repro/freq"
	"repro/freq/tenant"
)

// Cluster is the distributed read path: a fan-out client over N freqd
// instances that pulls each node's serialized summary concurrently
// (SNAP), merges them at the coordinator with Algorithm 5 — the paper's
// §3 mergeability result is exactly what makes the merged answer a valid
// summary of the union of all nodes' streams — and serves the result
// through the same freq.Queryable interface as a local sketch. The
// goProbe-style promise: one query abstraction, local or fleet.
//
// Reads are snapshot-isolated against the cached merged view: Refresh
// pulls fresh snapshots; every query between refreshes answers from the
// same frozen merged summary (queries auto-refresh once if no view has
// been fetched yet). Like Client, a Cluster is not safe for concurrent
// use, though a Refresh internally fans out over all nodes in parallel.
//
// The interface-shaped methods cannot return transport errors in-band;
// the first failure is recorded under Err and zero values are returned.
// Callers that need per-call errors use Refresh + View, and callers that
// need per-node accounting (which node was slow, which was down, how
// many answered) read Manifest after a refresh.
type Cluster[T ~int64 | ~uint64] struct {
	clients  []*Client[T]
	cfg      clusterConfig
	view     *freq.Sketch[T]
	manifest Manifest
	err      error
}

// clusterConfig carries the fan-out fault-tolerance policy.
type clusterConfig struct {
	quorum      int
	nodeTimeout time.Duration
}

// ClusterOption configures a Cluster's partial-failure policy.
type ClusterOption func(*clusterConfig)

// WithQuorum makes refreshes require at least k answering nodes. Below
// k the refresh fails and the previous view (if any) is kept; at or
// above k the refresh succeeds with a merged view over the answering
// subset, flagged degraded when any node failed. The default quorum is
// 1: a fleet answers as long as a single node does.
func WithQuorum(k int) ClusterOption {
	return func(cfg *clusterConfig) { cfg.quorum = k }
}

// WithNodeTimeout bounds each node's part of a refresh fan-out. A node
// that has not delivered its snapshot within d is aborted (its in-flight
// operation fails with a timeout, its connection is marked broken so the
// next refresh re-dials) and reported in the Manifest; the refresh as a
// whole proceeds with the nodes that answered. Zero means no per-node
// bound beyond the clients' own IO timeouts.
func WithNodeTimeout(d time.Duration) ClusterOption {
	return func(cfg *clusterConfig) { cfg.nodeTimeout = d }
}

// NodeStatus is one node's line in a refresh Manifest.
type NodeStatus struct {
	// Addr is the node's dial target (or remote address).
	Addr string
	// Latency is how long the node's snapshot round trip took, whether
	// it succeeded or failed.
	Latency time.Duration
	// Err is nil if the node contributed a snapshot to the merged view,
	// otherwise the failure (typically a *TransportError).
	Err error
	// SnapshotBytes is the wire size of the summary blob the node
	// returned; 0 when the node failed.
	SnapshotBytes int
}

// Manifest is the per-node account of the most recent refresh fan-out:
// which nodes answered, how fast, how big their summaries were, and
// which failed with what. A degraded view (some nodes down, quorum
// still met) is detectable only here — the merged sketch itself cannot
// represent "2 of 3 nodes".
type Manifest struct {
	Nodes []NodeStatus
}

// Healthy returns how many nodes contributed to the merged view.
func (m Manifest) Healthy() int {
	n := 0
	for _, ns := range m.Nodes {
		if ns.Err == nil {
			n++
		}
	}
	return n
}

// Degraded reports whether the view was merged from fewer nodes than
// the fleet has — some node was down, unreachable, or too slow.
func (m Manifest) Degraded() bool {
	return len(m.Nodes) > 0 && m.Healthy() < len(m.Nodes)
}

// Dead returns the addresses of the nodes that failed the refresh.
func (m Manifest) Dead() []string {
	var dead []string
	for _, ns := range m.Nodes {
		if ns.Err != nil {
			dead = append(dead, ns.Addr)
		}
	}
	return dead
}

// Queryable compile-time proof, mirroring the assertions in freq.
var _ freq.Queryable[int64] = (*Cluster[int64])(nil)

// NewCluster builds a cluster over already-dialed clients. The cluster
// takes ownership: Close closes every client.
func NewCluster[T ~int64 | ~uint64](clients []*Client[T], opts ...ClusterOption) (*Cluster[T], error) {
	if len(clients) == 0 {
		return nil, errors.New("server: cluster needs at least one node")
	}
	c := &Cluster[T]{clients: clients}
	for _, opt := range opts {
		opt(&c.cfg)
	}
	if c.cfg.quorum < 1 {
		c.cfg.quorum = 1
	}
	if c.cfg.quorum > len(clients) {
		return nil, fmt.Errorf("server: quorum %d exceeds fleet size %d", c.cfg.quorum, len(clients))
	}
	return c, nil
}

// DialCluster connects to every addr and returns the fan-out client; on
// any dial failure the already-open connections are closed. Connecting
// is strict — a fleet whose nodes can't all be dialed at start-up is
// misconfigured — but once up, refreshes tolerate nodes dropping out
// down to the quorum, and a node that comes back is re-dialed
// transparently on the next refresh that touches it.
func DialCluster[T ~int64 | ~uint64](addrs []string, opts ...ClusterOption) (*Cluster[T], error) {
	if len(addrs) == 0 {
		return nil, errors.New("server: cluster needs at least one node")
	}
	clients := make([]*Client[T], 0, len(addrs))
	for _, addr := range addrs {
		c, err := Dial[T](addr)
		if err != nil {
			for _, open := range clients {
				open.Close()
			}
			return nil, fmt.Errorf("server: dial %s: %w", addr, err)
		}
		clients = append(clients, c)
	}
	return NewCluster(clients, opts...)
}

// Nodes returns the number of backing servers.
func (c *Cluster[T]) Nodes() int { return len(c.clients) }

// Manifest returns the per-node account of the most recent refresh.
// Before the first refresh it has no nodes.
func (c *Cluster[T]) Manifest() Manifest { return c.manifest }

// Degraded reports whether the current view was merged from fewer than
// all nodes (see Manifest.Degraded).
func (c *Cluster[T]) Degraded() bool { return c.manifest.Degraded() }

// Close closes every node connection. All closes are attempted; the
// errors are joined, so one node's failing close can't hide another's.
func (c *Cluster[T]) Close() error {
	errs := make([]error, len(c.clients))
	for i, cl := range c.clients {
		errs[i] = cl.Close()
	}
	return errors.Join(errs...)
}

// Refresh fans out a SNAP to every node concurrently, merges the
// returned summaries into a fresh coordinator sketch with the combined
// counter budget, and installs it as the read view. Each node's snapshot
// is internally consistent; nodes are sampled at (possibly slightly)
// different instants, the same semantics as a Concurrent snapshot taken
// shard by shard.
func (c *Cluster[T]) Refresh() error {
	return c.refresh(func(cl *Client[T]) (*freq.Sketch[T], error) {
		return cl.Snapshot()
	})
}

// RefreshWindow is Refresh scoped to each node's sliding window: it
// fans out WIN <w> SNAP, so the installed view merges every node's last
// w intervals — a fleet-wide rolling top-k. All subsequent Queryable
// reads answer window-scoped until the next refresh of either kind. It
// fails if any node runs without a window.
func (c *Cluster[T]) RefreshWindow(w int) error {
	return c.refresh(func(cl *Client[T]) (*freq.Sketch[T], error) {
		return cl.Window(w).Snapshot()
	})
}

// RefreshTenant is Refresh scoped to one tenant: it fans out
// TENANT <id> SNAP, so the installed view merges that tenant's summary
// across every node — the fleet-wide top-k of a single tenant. The id
// is validated locally before any network traffic. All subsequent
// Queryable reads answer tenant-scoped until the next refresh of any
// kind. It fails (down to the quorum) on nodes running without a
// tenant manager.
func (c *Cluster[T]) RefreshTenant(id string) error {
	if !tenant.ValidID(id) {
		return fmt.Errorf("cluster: %w: %q", tenant.ErrBadID, id)
	}
	return c.refresh(func(cl *Client[T]) (*freq.Sketch[T], error) {
		th, err := cl.Tenant(id)
		if err != nil {
			return nil, err
		}
		return th.Snapshot()
	})
}

// refresh pulls one snapshot per node concurrently via snap, tolerating
// per-node failures down to the quorum, and installs the merged
// coordinator sketch (over the answering subset) as the read view. Every
// outcome — success or failure, per node — lands in the Manifest. On a
// below-quorum failure the previous view and manifest are kept, so a
// transient outage doesn't blank out the read path.
func (c *Cluster[T]) refresh(snap func(*Client[T]) (*freq.Sketch[T], error)) error {
	snaps := make([]*freq.Sketch[T], len(c.clients))
	m := Manifest{Nodes: make([]NodeStatus, len(c.clients))}
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *Client[T]) {
			defer wg.Done()
			ns := &m.Nodes[i]
			ns.Addr = cl.Addr()
			// The per-node timeout is an external abort: it expires the
			// connection's deadlines so the in-flight round trip fails
			// with a timeout no matter where it is blocked. The failed
			// operation marks its connection broken, so the poisoned
			// stream is re-dialed — never reused — on the next refresh.
			var timer *time.Timer
			if d := c.cfg.nodeTimeout; d > 0 {
				timer = time.AfterFunc(d, cl.abort)
			}
			start := time.Now()
			s, err := snap(cl)
			ns.Latency = time.Since(start)
			if timer != nil {
				timer.Stop()
				cl.clearAbort()
			}
			ns.Err = err
			if err == nil {
				snaps[i] = s
				ns.SnapshotBytes = cl.lastSnapBytes
			}
		}(i, cl)
	}
	wg.Wait()

	total := 0
	healthy := 0
	var nodeErrs []error
	for i, s := range snaps {
		if err := m.Nodes[i].Err; err != nil {
			nodeErrs = append(nodeErrs, fmt.Errorf("node %s: %w", m.Nodes[i].Addr, err))
			continue
		}
		healthy++
		total += s.MaxCounters()
	}
	if healthy < c.cfg.quorum {
		return fmt.Errorf("server: cluster refresh below quorum (%d of %d nodes answered, need %d): %w",
			healthy, len(c.clients), c.cfg.quorum, errors.Join(nodeErrs...))
	}
	// The combined budget admits every answering node's counters without
	// evicting, so merging adds no error beyond the nodes' own bands
	// (Theorem 5). The coordinator is pre-sized (WithoutGrowth) so the
	// fan-in rides the same bulk merge kernel as the sharded view: the
	// first snapshot takes the found-check-free direct insert, the rest
	// the chunked pipelined absorb, and no merge ever rehashes mid-build.
	merged, err := freq.New[T](total, freq.WithoutGrowth())
	if err != nil {
		return err
	}
	for _, s := range snaps {
		if s != nil {
			merged.Merge(s)
		}
	}
	c.view = merged
	c.manifest = m
	return nil
}

// View returns the current merged read view, refreshing once if none has
// been fetched yet. The returned sketch is the cluster's cached view:
// treat it as read-only and Refresh to advance it.
func (c *Cluster[T]) View() (*freq.Sketch[T], error) {
	if c.view == nil {
		if err := c.Refresh(); err != nil {
			return nil, err
		}
	}
	return c.view, nil
}

// Err returns the first transport error recorded by the
// freq.Queryable-shaped methods, or nil. It does not reset.
func (c *Cluster[T]) Err() error { return c.err }

// cached returns the view for the interface-shaped methods, recording
// the error and returning nil on failure.
func (c *Cluster[T]) cached() *freq.Sketch[T] {
	v, err := c.View()
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		return nil
	}
	return v
}

// Estimate returns the merged point estimate for item across the fleet.
func (c *Cluster[T]) Estimate(item T) int64 {
	if v := c.cached(); v != nil {
		return v.Estimate(item)
	}
	return 0
}

// LowerBound returns a certain lower bound on item's fleet-wide
// frequency as of the current view.
func (c *Cluster[T]) LowerBound(item T) int64 {
	if v := c.cached(); v != nil {
		return v.LowerBound(item)
	}
	return 0
}

// UpperBound returns a certain upper bound on item's fleet-wide
// frequency as of the current view.
func (c *Cluster[T]) UpperBound(item T) int64 {
	if v := c.cached(); v != nil {
		return v.UpperBound(item)
	}
	return 0
}

// MaximumError returns the merged view's error band.
func (c *Cluster[T]) MaximumError() int64 {
	if v := c.cached(); v != nil {
		return v.MaximumError()
	}
	return 0
}

// StreamWeight returns the total weight across the fleet as of the
// current view.
func (c *Cluster[T]) StreamWeight() int64 {
	if v := c.cached(); v != nil {
		return v.StreamWeight()
	}
	return 0
}

// All iterates every tracked row of the merged view, in unspecified
// order.
func (c *Cluster[T]) All() iter.Seq2[T, freq.Row[T]] {
	return func(yield func(T, freq.Row[T]) bool) {
		v := c.cached()
		if v == nil {
			return
		}
		for item, r := range v.All() {
			if !yield(item, r) {
				return
			}
		}
	}
}

// Query starts a composable query over the merged fleet view.
func (c *Cluster[T]) Query() *freq.Query[T] { return freq.From[T](c) }
