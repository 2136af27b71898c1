// Rolling top-k: a sliding window of per-interval sketches answering
// "who are the top talkers over the last N seconds?" — the
// freq.ConcurrentWindowed workload. The demo simulates a traffic monitor
// where the hot flow changes every few "seconds": each simulated second
// ingests an interval's worth of flows and rotates the ring, and the
// rolling top-3 shows old hot flows aging out of the window while an
// all-time sketch would remember them forever.
//
// Rotation here is manual (deterministic output); a live collector
// attaches a wall-clock driver instead:
//
//	cw, _ := freq.NewConcurrentWindowed[uint64](4096, 60)
//	stop := cw.StartRotating(time.Second)
//	defer stop()
package main

import (
	"fmt"
	"log"

	"repro/freq"
)

func main() {
	const (
		k         = 256 // counters per interval
		intervals = 4   // the window covers the last 4 seconds
	)
	cw, err := freq.NewConcurrentWindowed[uint64](k, intervals)
	if err != nil {
		log.Fatal(err)
	}

	// One entry per simulated second: a hot flow dominating that second
	// plus steady background flows. Flow 1001 is hot early and then goes
	// quiet — watch it drop out of the rolling top-3 once the window
	// slides past second 3.
	seconds := []struct {
		hot    uint64
		weight int64
	}{
		{1001, 9000}, {1001, 9000}, {1001, 9000},
		{2002, 7000}, {2002, 7000},
		{3003, 5000}, {3003, 5000}, {3003, 5000},
	}
	for sec, traffic := range seconds {
		if sec > 0 {
			// A new second begins: the oldest interval's sketch is
			// recycled in place as the new head — no allocation.
			cw.Rotate()
		}
		// The hot flow, plus background flows 1..50 at 100 bytes each,
		// ingested through the batched hot path.
		items := []uint64{traffic.hot}
		weights := []int64{traffic.weight}
		for f := uint64(1); f <= 50; f++ {
			items = append(items, f)
			weights = append(weights, 100)
		}
		if err := cw.UpdateWeightedBatch(items, weights); err != nil {
			log.Fatal(err)
		}

		fmt.Printf("second %d (window = last %d intervals, N=%d):\n",
			sec+1, cw.Intervals(), cw.StreamWeight())
		for i, r := range cw.Query().Limit(3).Collect() {
			fmt.Printf("  %d. flow %-6d ~%d bytes\n", i+1, r.Item, r.Estimate)
		}
	}

	// Window-scoped queries: the same Query/TopK surface over any suffix
	// of the window. The last 2 intervals no longer contain flow 2002.
	fmt.Printf("\nlast 2 intervals only: ")
	for _, r := range cw.Last(2).Query().Limit(2).Collect() {
		fmt.Printf("flow %d (~%d) ", r.Item, r.Estimate)
	}
	fmt.Println()
	fmt.Printf("flow 1001 estimate, full window:  %d\n", cw.Estimate(1001))
	fmt.Printf("flow 3003 estimate, full window:  %d\n", cw.Estimate(3003))
}
