// Netflow: the paper's headline workload (§1.2, §4.1) — track the total
// traffic volume per source IP over a packet stream with a summary 70x
// smaller than exact counting, and verify the bracketing guarantees
// against ground truth.
package main

import (
	"fmt"
	"log"

	"repro/freq"
	"repro/freq/stream"
)

func main() {
	// A synthetic stand-in for the CAIDA trace: 2M packets from ~260k
	// distinct sources; item = source IPv4, weight = packet size in bits.
	trace, err := stream.PacketTrace(stream.TraceConfig{
		Packets:         2_000_000,
		DistinctSources: 1 << 18,
		Alpha:           1.1,
		Seed:            42,
	})
	if err != nil {
		log.Fatal(err)
	}

	sketch, err := freq.New[int64](1024)
	if err != nil {
		log.Fatal(err)
	}
	truth := map[int64]int64{} // exact counts, for demonstration only
	for _, pkt := range trace {
		if err := sketch.Update(pkt.Item, pkt.Weight); err != nil {
			log.Fatal(err)
		}
		truth[pkt.Item] += pkt.Weight
	}

	fmt.Println(sketch)
	exactBytes := 40 * len(truth) // ~8 key + 8 value + map overhead per entry
	fmt.Printf("exact solution would use ~%d KB; sketch uses %d KB (%.0fx smaller)\n\n",
		exactBytes/1024, sketch.MaxSizeBytes()/1024,
		float64(exactBytes)/float64(sketch.MaxSizeBytes()))

	fmt.Println("top talkers by traffic volume (bits):")
	fmt.Printf("%-18s %14s %14s %9s\n", "source", "estimate", "true", "err")
	for _, row := range sketch.Query().Limit(10).Collect() {
		fmt.Printf("%-18s %14d %14d %9d\n",
			ipString(uint32(row.Item)), row.Estimate, truth[row.Item], row.Estimate-truth[row.Item])
	}

	// Every estimate respects the bracketing guarantee.
	violations := 0
	for item, want := range truth {
		if sketch.LowerBound(item) > want || sketch.UpperBound(item) < want {
			violations++
		}
	}
	fmt.Printf("\nbracketing violations over %d distinct sources: %d\n",
		len(truth), violations)
	fmt.Printf("max possible error (offset): %d bits = %.4f%% of N\n",
		sketch.MaximumError(),
		100*float64(sketch.MaximumError())/float64(sketch.StreamWeight()))
}

func ipString(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}
