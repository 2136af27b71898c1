// Quickstart: create a sketch, feed weighted updates, query estimates and
// extract heavy hitters — the whole public API surface in one file.
package main

import (
	"fmt"
	"log"

	"repro/freq"
)

func main() {
	// A sketch with up to 64 tracked counters. The summary costs 24*64
	// bytes at full size regardless of how many distinct items the stream
	// contains.
	sketch, err := freq.New[uint64](64)
	if err != nil {
		log.Fatal(err)
	}

	// Weighted updates: (item, weight). Think "user 7 sent 512 bytes".
	updates := []struct {
		item   uint64
		weight int64
	}{
		{7, 512}, {7, 2048}, {42, 100}, {7, 4096}, {42, 300}, {1000, 1},
	}
	for _, u := range updates {
		if err := sketch.Update(u.item, u.weight); err != nil {
			log.Fatal(err)
		}
	}
	// Tiny streams fit entirely in the counters, so estimates are exact
	// and the error band is zero.
	fmt.Println(sketch)
	fmt.Printf("item 7:    estimate=%d, bounds=[%d, %d]\n",
		sketch.Estimate(7), sketch.LowerBound(7), sketch.UpperBound(7))
	fmt.Printf("item 42:   estimate=%d\n", sketch.Estimate(42))
	fmt.Printf("item 9999: estimate=%d (never seen)\n", sketch.Estimate(9999))

	// Heavy hitters above 10% of the stream weight.
	phi := 0.10
	threshold := int64(phi * float64(sketch.StreamWeight()))
	fmt.Printf("\nitems above %.0f%% of N=%d:\n", phi*100, sketch.StreamWeight())
	for _, row := range sketch.Query().Where(threshold).WithErrorType(freq.NoFalseNegatives).Collect() {
		fmt.Printf("  %v\n", row)
	}

	// The same API over any comparable type: strings route to the generic
	// backend with identical semantics.
	words, err := freq.New[string](32)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range []string{"cat", "dog", "cat", "fish", "cat", "dog"} {
		words.UpdateOne(w)
	}
	fmt.Printf("\nword counts: cat=%d dog=%d fish=%d\n",
		words.Estimate("cat"), words.Estimate("dog"), words.Estimate("fish"))

	// Serialization round-trip: the summary travels as a few hundred bytes.
	blob, err := sketch.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	restored, err := freq.New[uint64](64)
	if err != nil {
		log.Fatal(err)
	}
	if err := restored.UnmarshalBinary(blob); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserialized %d bytes; restored estimate for item 7: %d\n",
		len(blob), restored.Estimate(7))
}
