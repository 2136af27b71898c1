// HHH: hierarchical heavy hitters over IPv4 prefixes (§1.2, §6) — find
// not just the heavy source addresses but the heavy subnets, discounting
// traffic already attributed to reported descendants. A synthetic attack
// scenario hides a distributed sender inside one /16 so that no single
// /32 is heavy but the aggregate is unmissable.
//
// The hierarchy is built entirely from the public freq API: one sketch
// per prefix level, updates fan out to every ancestor prefix, and the
// query walks the levels bottom-up with descendant discounting — the
// downstream-application substitution the paper proposes in §6.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"sort"

	"repro/freq"
	"repro/freq/stream"
)

// levels are the conventional IPv4 aggregation levels.
var levels = []int{8, 16, 24, 32}

// hierarchy keeps one weighted frequent-items sketch per prefix level.
type hierarchy struct {
	sketches []*freq.Sketch[uint64]
	streamN  int64
}

func newHierarchy(k int) (*hierarchy, error) {
	h := &hierarchy{sketches: make([]*freq.Sketch[uint64], len(levels))}
	for i := range levels {
		sk, err := freq.New[uint64](k)
		if err != nil {
			return nil, err
		}
		h.sketches[i] = sk
	}
	return h, nil
}

// prefixID packs a masked address and its level into a sketch item.
func prefixID(addr uint32, prefixLen int) uint64 {
	masked := addr &^ (1<<(32-uint(prefixLen)) - 1)
	return uint64(prefixLen)<<32 | uint64(masked)
}

func (h *hierarchy) update(addr uint32, weight int64) error {
	for i, l := range levels {
		if err := h.sketches[i].Update(prefixID(addr, l), weight); err != nil {
			return err
		}
	}
	h.streamN += weight
	return nil
}

// result is one hierarchical heavy hitter: a prefix whose traffic still
// exceeds the threshold after discounting reported descendants.
type result struct {
	prefix     uint32
	prefixLen  int
	estimate   int64
	discounted int64
}

func (r result) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d est=%d disc=%d",
		byte(r.prefix>>24), byte(r.prefix>>16), byte(r.prefix>>8), byte(r.prefix),
		r.prefixLen, r.estimate, r.discounted)
}

// query walks levels from most to least specific; a prefix is reported
// when its estimate minus the mass claimed by reported descendants meets
// the threshold, and claimed mass propagates to the parent level.
func (h *hierarchy) query(threshold int64) []result {
	if threshold < 1 {
		threshold = 1
	}
	var results []result
	discount := make(map[uint64]int64)
	for i := len(levels) - 1; i >= 0; i-- {
		rows := h.sketches[i].Query().Where(threshold - 1).WithErrorType(freq.NoFalseNegatives).Collect()
		var reported []result
		for _, row := range rows {
			disc := row.Estimate - discount[row.Item]
			if disc >= threshold {
				reported = append(reported, result{
					prefix:     uint32(row.Item),
					prefixLen:  levels[i],
					estimate:   row.Estimate,
					discounted: disc,
				})
			}
		}
		sort.Slice(reported, func(a, b int) bool { return reported[a].estimate > reported[b].estimate })
		results = append(results, reported...)
		if i == 0 {
			break
		}
		parentLen := levels[i-1]
		next := make(map[uint64]int64)
		claimed := make(map[uint64]bool, len(reported))
		for _, r := range reported {
			claimed[prefixID(r.prefix, levels[i])] = true
			next[prefixID(r.prefix, parentLen)] += r.estimate
		}
		for id, d := range discount {
			if !claimed[id] {
				next[prefixID(uint32(id), parentLen)] += d
			}
		}
		discount = next
	}
	return results
}

func main() {
	h, err := newHierarchy(1024)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(7, 7))

	// Background traffic: zipf-popular individual sources.
	background, err := stream.PacketTrace(stream.TraceConfig{
		Packets:         400_000,
		DistinctSources: 1 << 16,
		Seed:            7,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, pkt := range background {
		if err := h.update(uint32(pkt.Item), pkt.Weight); err != nil {
			log.Fatal(err)
		}
	}

	// The hidden aggregate: 10.77.0.0/16 sends 15% of total bytes spread
	// over thousands of distinct low-rate hosts.
	attackNet := uint32(10)<<24 | uint32(77)<<16
	attackWeight := h.streamN * 15 / 85
	perPacket := int64(12000) // 1500 B in bits
	for sent := int64(0); sent < attackWeight; sent += perPacket {
		host := attackNet | uint32(rng.Uint64N(1<<16))
		if err := h.update(host, perPacket); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("total traffic: %d bits\n\n", h.streamN)
	fmt.Println("hierarchical heavy hitters above 3% of traffic:")
	results := h.query(int64(0.03 * float64(h.streamN)))
	for _, r := range results {
		fmt.Printf("  %v\n", r)
	}

	found := false
	for _, r := range results {
		if r.prefixLen == 16 && r.prefix == attackNet {
			found = true
			fmt.Printf("\n>> the distributed sender 10.77.0.0/16 is reported at the /16 level\n")
			fmt.Printf(">> (its busiest single host is far below the per-address threshold)\n")
		}
	}
	if !found {
		fmt.Println("\n>> attack prefix not isolated at /16 (try more counters)")
	}
}
