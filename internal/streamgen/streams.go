package streamgen

import (
	"fmt"

	"repro/internal/xrand"
)

// Update is one weighted stream update (ij, Δj) of §1.2.
type Update struct {
	Item   int64
	Weight int64
}

// ZipfStream generates n updates whose items are Zipf(α)-distributed over
// a universe of `universe` distinct identifiers and whose weights are
// uniform in [1, maxWeight] — the Figure 4 workload ([2, Section 5]:
// α = 1.05, weights uniform on 1..10000). Identifiers are scrambled
// 64-bit values rather than raw ranks so hash-table behaviour is not
// flattered by sequential keys.
func ZipfStream(alpha float64, universe, n int, maxWeight int64, seed uint64) ([]Update, error) {
	if maxWeight < 1 {
		return nil, fmt.Errorf("streamgen: maxWeight %d must be positive", maxWeight)
	}
	z, err := NewZipf(alpha, universe, seed)
	if err != nil {
		return nil, err
	}
	rng := xrand.NewSplitMix64(seed ^ 0x2545f4914f6cdd1d)
	out := make([]Update, n)
	for i := range out {
		rank := z.Next()
		out[i] = Update{
			Item:   itemID(rank, seed),
			Weight: 1 + int64(rng.Uint64n(uint64(maxWeight))),
		}
	}
	return out, nil
}

// UnitZipfStream generates a unit-weight Zipf stream (the unweighted
// setting of the prior-work experiments in [7]).
func UnitZipfStream(alpha float64, universe, n int, seed uint64) ([]Update, error) {
	return ZipfStream(alpha, universe, n, 1, seed)
}

// itemID maps a rank to a stable pseudorandom 63-bit identifier.
func itemID(rank int, seed uint64) int64 {
	return int64(xrand.Mix64(uint64(rank)*0x9e3779b97f4a7c15+seed) >> 1)
}

// Packet-trace substitution (§4.1 dataset). The CAIDA 2016 capture the
// paper preprocesses has: items = IPv4 source addresses (~1.75M distinct
// in 126.2M packets), weights = packet sizes in bits, and a heavy-tailed
// flow-size distribution. The synthetic trace reproduces those properties:
// source addresses are drawn Zipf(α≈1.1) over a configurable distinct
// count and scrambled into the 32-bit address space, and packet sizes
// follow the classic trimodal internet mix (ACK-sized, default-MTU-
// fragment-sized, and full-MTU packets) so weights span two orders of
// magnitude like the real trace's 320..12112 bits.

// TraceConfig parameterizes the synthetic packet trace.
type TraceConfig struct {
	// Packets is the stream length n.
	Packets int
	// DistinctSources approximates the number of distinct source IPs
	// (the realized count is slightly lower since high ranks may never be
	// drawn). CAIDA 2016: ~1.75M over 126.2M packets.
	DistinctSources int
	// Alpha is the source-popularity skew. Backbone traces are mildly
	// over-Zipf; 1.1 reproduces a top-talker share similar to the paper's
	// qualitative description.
	Alpha float64
	// Seed makes the trace reproducible.
	Seed uint64
}

// DefaultTrace is a laptop-scale default: 4M packets over 256k sources.
// Scale Packets/DistinctSources up ~30x to match the paper's full trace.
func DefaultTrace() TraceConfig {
	return TraceConfig{Packets: 4_000_000, DistinctSources: 1 << 18, Alpha: 1.1, Seed: 0xCA1DA}
}

// PacketTrace generates the synthetic CAIDA-like stream: item = IPv4
// source address as int64, weight = packet size in bits.
func PacketTrace(cfg TraceConfig) ([]Update, error) {
	if cfg.Packets < 0 {
		return nil, fmt.Errorf("streamgen: negative packet count")
	}
	if cfg.DistinctSources < 1 {
		return nil, fmt.Errorf("streamgen: DistinctSources must be positive")
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1.1
	}
	z, err := NewZipf(cfg.Alpha, cfg.DistinctSources, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := xrand.NewSplitMix64(cfg.Seed ^ 0x9e3779b97f4a7c15)
	out := make([]Update, cfg.Packets)
	for i := range out {
		rank := z.Next()
		out[i] = Update{
			Item:   int64(uint32(xrand.Mix64(uint64(rank) + cfg.Seed))), // IPv4 as int64
			Weight: packetBits(&rng),
		}
	}
	return out, nil
}

// packetBits draws a packet size in bits from the trimodal internet mix:
// ~45% minimum-sized packets (40-64 B), ~15% mid-sized (570-590 B),
// ~40% full-MTU (1480-1500 B).
func packetBits(rng *xrand.SplitMix64) int64 {
	var bytes int64
	switch p := rng.Float64(); {
	case p < 0.45:
		bytes = 40 + int64(rng.Uint64n(25))
	case p < 0.60:
		bytes = 570 + int64(rng.Uint64n(21))
	default:
		bytes = 1480 + int64(rng.Uint64n(21))
	}
	return bytes * 8
}

// Adversarial generates the §1.3.4 stream that forces RBMC to run a full
// Θ(k) decrement on essentially every update: k updates of weight m to
// distinct items, followed by m unit updates to further distinct items.
func Adversarial(k int, m int64) []Update {
	out := make([]Update, 0, k+int(m))
	for i := 0; i < k; i++ {
		out = append(out, Update{Item: int64(i), Weight: m})
	}
	for i := int64(0); i < m; i++ {
		out = append(out, Update{Item: int64(k) + i, Weight: 1})
	}
	return out
}

// TotalWeight returns N = ΣΔj for a generated stream.
func TotalWeight(stream []Update) int64 {
	var n int64
	for _, u := range stream {
		n += u.Weight
	}
	return n
}
