package main

import (
	"encoding/binary"
	"slices"
	"testing"
)

// testRing keeps test inputs small; the shape is still a whole number of
// frames and history slots for every workload.
var testRing = ringShape{packets: 1 << 17, sources: 1 << 15}

func mustInputs(t *testing.T, wl *workload, seed uint64) *inputs {
	t.Helper()
	in, err := buildInputs(wl, seed, testRing)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// Inputs are a pure function of (workload, seed): the digest repeats for
// the same pair and changes with either.
func TestInputsDigest(t *testing.T) {
	ingest, _ := workloadByName("ingest")
	tenants, _ := workloadByName("tenants")
	a := mustInputs(t, ingest, 1)
	if b := mustInputs(t, ingest, 1); b.digest != a.digest {
		t.Errorf("same seed: digests %016x and %016x differ", a.digest, b.digest)
	}
	if b := mustInputs(t, ingest, 2); b.digest == a.digest {
		t.Errorf("seeds 1 and 2 share digest %016x", a.digest)
	}
	if b := mustInputs(t, tenants, 1); b.digest == a.digest {
		t.Errorf("ingest and tenants share digest %016x", a.digest)
	}
}

// The first half of the probes is the ring's exact top 64 by weight.
func TestProbesStartWithExactTop(t *testing.T) {
	wl, _ := workloadByName("ingest")
	in := mustInputs(t, wl, 3)
	sums := map[int64]int64{}
	for i := 0; i < len(in.ring); i += pairSize {
		sums[int64(binary.LittleEndian.Uint64(in.ring[i:]))] += int64(binary.LittleEndian.Uint64(in.ring[i+8:]))
	}
	type kv struct{ key, sum int64 }
	var all []kv
	for k, s := range sums {
		all = append(all, kv{k, s})
	}
	slices.SortFunc(all, func(a, b kv) int {
		if a.sum != b.sum {
			return int(b.sum - a.sum)
		}
		return int(a.key - b.key)
	})
	for i := range topK {
		if in.probes[i] != all[i].key {
			t.Fatalf("probe %d is %d, want %d (weight %d)", i, in.probes[i], all[i].key, all[i].sum)
		}
	}
	if len(in.probes) != 2*topK {
		t.Errorf("%d probes, want %d", len(in.probes), 2*topK)
	}
	var total int64
	for _, w := range in.frameWeight {
		total += w
	}
	var want int64
	for _, s := range sums {
		want += s
	}
	if total != want {
		t.Errorf("frame weights sum to %d, want %d", total, want)
	}
}
