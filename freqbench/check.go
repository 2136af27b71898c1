package main

import (
	"fmt"
	"time"

	"repro/freq"
)

// checkRows checks one TOPK reply: at most topK rows, each with
// LowerBound <= estimate <= UpperBound, ordered by descending estimate
// with ties by ascending item (the server's canonical order).
func checkRows(rows []row) error {
	if len(rows) > topK {
		return fmt.Errorf("%d rows, asked for %d", len(rows), topK)
	}
	for i, r := range rows {
		if r.lb > r.est || r.est > r.ub {
			return fmt.Errorf("row %d: item %d estimate %d outside [%d, %d]", i, r.item, r.est, r.lb, r.ub)
		}
		if i > 0 {
			p := rows[i-1]
			if p.est < r.est || (p.est == r.est && p.item >= r.item) {
				return fmt.Errorf("rows %d and %d out of order: (%d, %d) before (%d, %d)", i-1, i, p.item, p.est, r.item, r.est)
			}
		}
	}
	return nil
}

// checkBounds checks the paper's per-item guarantee (§2) for an item of
// exact frequency f: LowerBound <= f <= UpperBound, the estimate within
// the bounds, and the band no wider than the summary's maximum error.
func checkBounds(item, f, est, lb, ub, maxErr int64) error {
	switch {
	case f < lb || f > ub:
		return fmt.Errorf("item %d: frequency %d outside [%d, %d]", item, f, lb, ub)
	case est < lb || est > ub:
		return fmt.Errorf("item %d: estimate %d outside [%d, %d]", item, est, lb, ub)
	case ub-lb > maxErr:
		return fmt.Errorf("item %d: band %d wider than the maximum error %d", item, ub-lb, maxErr)
	}
	return nil
}

// tally is the exact content of the frames acknowledged in one scope:
// how many times each ring frame was applied.
type tally []int64

func (t tally) weight(in *inputs) int64 {
	var w int64
	for f, n := range t {
		w += n * in.frameWeight[f]
	}
	return w
}

func (t tally) probe(in *inputs, p int) int64 {
	var w int64
	for f, n := range t {
		w += n * in.probeW[f*len(in.probes)+p]
	}
	return w
}

// tallies splits the frames sent, sequence numbers [0, sent), by scope:
// the global summary, then each hot tenant.
func tallies(in *inputs, sent int64) (global tally, hot []tally) {
	global = make(tally, in.frames)
	hot = make([]tally, hotTenants)
	for t := range hot {
		hot[t] = make(tally, in.frames)
	}
	for s := range sent {
		f := s % int64(in.frames)
		if in.tenantOf == nil {
			global[f]++
		} else if t := in.tenantOf[s%int64(len(in.tenantOf))]; t < hotTenants {
			hot[t][f]++
		}
	}
	return global, hot
}

// checkResult is what the end-of-run checks saw.
type checkResult struct {
	violations []string
	// stats is the global STATS reply; hotStats the hottest tenant's.
	stats, hotStats map[string]int64
}

func (c *checkResult) fail(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// verify runs the end-of-run checks on the connection the load used,
// after every request has been answered.
func verify(c *conn, r *loadRun) (*checkResult, error) {
	in := r.in
	res := &checkResult{}
	// A non-update command flushes the connection's buffered ingest, so
	// after it the summary holds every acked pair.
	p, err := c.roundTrip("STATS")
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	if res.stats, err = parseStats(p); err != nil {
		return nil, err
	}
	if _, failed := r.counts(); failed > 0 {
		// Which failed frames were applied is unknowable; exact checks
		// would be meaningless.
		res.fail("%d requests failed, exact checks skipped", failed)
		return res, nil
	}
	global, hot := tallies(in, r.seq.Load())
	if n, want := res.stats["n"], global.weight(in); n != want {
		res.fail("STATS n=%d, want the %d acknowledged", n, want)
	}
	if !in.wl.tenants {
		if err := checkProbes(c, in, "", global, res.stats["err"], res); err != nil {
			return nil, err
		}
	} else {
		if res.stats["tenant_evictions"] == 0 {
			res.fail("no tenant was evicted")
		}
		for t := range hotTenants {
			scope := "TENANT " + tenantID(t) + " "
			p, err := c.roundTrip(scope + "STATS")
			if err != nil {
				return nil, fmt.Errorf("%sSTATS: %w", scope, err)
			}
			st, err := parseStats(p)
			if err != nil {
				return nil, err
			}
			if t == 0 {
				res.hotStats = st
			}
			if n, want := st["n"], hot[t].weight(in); n != want {
				res.fail("%sSTATS n=%d, want the %d acknowledged", scope, n, want)
			}
			if err := checkProbes(c, in, scope, hot[t], st["err"], res); err != nil {
				return nil, err
			}
		}
	}
	if in.wl.store {
		if err := checkPreloadedRange(c, in, r.rangeEnd, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkProbes asks for every probe's estimate in one scope, pipelined,
// and checks its bounds against the exact tally.
func checkProbes(c *conn, in *inputs, scope string, t tally, maxErr int64, res *checkResult) error {
	for _, item := range in.probes {
		if err := c.writeCmd(fmt.Sprintf("%sEST %d", scope, item)); err != nil {
			return err
		}
	}
	for p, item := range in.probes {
		reply, err := c.readReply(time.Now().Add(opTimeout))
		if err != nil {
			return fmt.Errorf("%sEST: %w", scope, err)
		}
		est, lb, ub, err := parseEst(reply)
		if err != nil {
			return err
		}
		if err := checkBounds(item, t.probe(in, p), est, lb, ub, maxErr); err != nil {
			res.fail("%sEST: %v", scope, err)
		}
	}
	return nil
}

// checkPreloadedRange merges the last preloaded half hour through RANGE SNAP
// and checks every probe against the exact sum over its slots.
func checkPreloadedRange(c *conn, in *inputs, end time.Time, res *checkResult) error {
	p, err := c.roundTrip(fmt.Sprintf("RANGE %d %d SNAP", end.Unix()-rangeSeconds, end.Unix()))
	if err != nil {
		return fmt.Errorf("RANGE SNAP: %w", err)
	}
	blob, err := parseSnap(p)
	if err != nil {
		return err
	}
	sk, err := freq.New[int64](in.wl.k)
	if err != nil {
		return err
	}
	if err := sk.UnmarshalBinary(blob); err != nil {
		return fmt.Errorf("RANGE SNAP blob: %w", err)
	}
	// The span holds the day's last rangeSeconds/60 slots; slot i is ring
	// chunk i mod chunks, and a chunk spans slotPairs/framePairs frames.
	chunks := len(in.ring) / pairSize / slotPairs
	perChunk := slotPairs / in.wl.framePairs
	t := make(tally, in.frames)
	for i := preloadSlots - rangeSeconds/60; i < preloadSlots; i++ {
		c := i % chunks
		for f := c * perChunk; f < (c+1)*perChunk; f++ {
			t[f]++
		}
	}
	if n, want := sk.StreamWeight(), t.weight(in); n != want {
		res.fail("RANGE over the preloaded span: stream weight %d, want %d", n, want)
	}
	for p, item := range in.probes {
		err := checkBounds(item, t.probe(in, p), sk.Estimate(item), sk.LowerBound(item), sk.UpperBound(item), sk.MaximumError())
		if err != nil {
			res.fail("RANGE over the preloaded span: %v", err)
		}
	}
	return nil
}
