// Topkwords: weighted text analysis with the generic sketch — the
// tf-idf motivation of §1.2, where each occurrence of a term carries an
// importance weight rather than a unit count. Items here are strings,
// exercising the generic sketch rather than the int64-optimized core.
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"repro/freq"
)

// Corpus statistics drive idf; the "stream" is every word occurrence of
// every document, weighted by scaled idf so that globally common words
// contribute little no matter how often they appear.
var docs = []string{
	"the stream of packets flows through the router and the switch",
	"frequent items in the stream reveal the heavy hitters of the network",
	"the sketch summarizes the stream with counters and the sketch merges",
	"heavy hitters dominate traffic and heavy flows exhaust the counters",
	"misra and gries decrement counters while space saving reassigns counters",
	"the router drops packets when the heavy flows exhaust the switch",
	"weighted updates let the sketch track bytes instead of packets",
	"merging sketches of shards yields the sketch of the union stream",
}

func main() {
	// Document frequencies for idf.
	df := map[string]int{}
	for _, d := range docs {
		seen := map[string]bool{}
		for _, w := range strings.Fields(d) {
			if !seen[w] {
				df[w]++
				seen[w] = true
			}
		}
	}
	idf := func(w string) int64 {
		// Scaled smooth idf: weight 1 for words in every document, larger
		// for rare words; integer weights suit the counter summary.
		v := math.Log(float64(1+len(docs))/float64(1+df[w])) + 1
		return int64(v * 100)
	}

	sketch, err := freq.New[string](32)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range docs {
		for _, w := range strings.Fields(d) {
			if err := sketch.Update(w, idf(w)); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Printf("tracked %d terms over total tf-idf weight %d (max err %d)\n\n",
		sketch.NumActive(), sketch.StreamWeight(), sketch.MaximumError())
	fmt.Println("top terms by accumulated tf-idf weight:")
	fmt.Printf("%-12s %10s %10s %10s\n", "term", "estimate", "lower", "upper")
	for _, row := range sketch.Query().Limit(12).Collect() {
		fmt.Printf("%-12s %10d %10d %10d\n", row.Item, row.Estimate, row.LowerBound, row.UpperBound)
	}

	// "the" has huge term frequency but idf ~1 per occurrence; rare
	// technical terms surface above it despite far fewer occurrences.
	fmt.Printf("\npoint queries: the=%d, sketch=%d, counters=%d\n",
		sketch.Estimate("the"), sketch.Estimate("sketch"), sketch.Estimate("counters"))
}
