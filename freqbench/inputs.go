package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"repro/internal/streamgen"
	"repro/internal/xrand"
)

// workload is one traffic mix the benchmark drives freqd with.
type workload struct {
	name string
	// flags configure freqd besides -listen; "{store}" stands for the
	// run's store directory.
	flags []string
	// k and shards repeat the geometry flags, for the in-process layer
	// replays.
	k, shards int
	// framePairs is the number of pairs in one PAIRS frame.
	framePairs int
	// readOp names the span of the workload's read.
	readOp string
	// tenants scopes each frame to a tenant drawn from the schedule.
	tenants bool
	// window and store mark the subsystems the flags switch on.
	window, store bool
	// warmup runs frames untimed first, so the summary is full and
	// decrementing, the window ring has wrapped, and the tenant registry
	// is at capacity before measuring.
	warmup time.Duration
}

const (
	// topK is the row count every read asks for.
	topK = 64
	// tenantIDs and tenantAlpha shape the tenants workload's tenant
	// popularity; hotTenants are the most popular, checked exactly.
	tenantIDs   = 1024
	tenantAlpha = 1.2
	hotTenants  = 4
	// rangeSeconds is the span of the history workload's RANGE reads.
	rangeSeconds = 900
	// windowSlots is the dashboard workload's window; its reads merge all
	// of it.
	windowSlots = 5
)

var workloads = []*workload{
	{
		name:       "ingest",
		flags:      []string{"-k", "24576", "-shards", "8"},
		k:          24576,
		shards:     8,
		framePairs: 4096,
		readOp:     "wire.topk",
		warmup:     time.Second,
	},
	{
		name:       "dashboard",
		flags:      []string{"-k", "24576", "-shards", "8", "-window", "5", "-rotate-every", "200ms"},
		k:          24576,
		shards:     8,
		framePairs: 4096,
		readOp:     "wire.win_topk",
		window:     true,
		warmup:     2 * time.Second,
	},
	{
		name:       "history",
		flags:      []string{"-k", "4096", "-shards", "8", "-window", "60", "-rotate-every", "1s", "-store-dir", "{store}", "-store-partition", "1h"},
		k:          4096,
		shards:     8,
		framePairs: 4096,
		readOp:     "wire.range",
		window:     true,
		store:      true,
		warmup:     2 * time.Second,
	},
	{
		name:       "tenants",
		flags:      []string{"-tenants", "-max-tenants", "256", "-k", "4096", "-shards", "2"},
		k:          4096,
		shards:     2,
		framePairs: 512,
		readOp:     "wire.tenant_topk",
		tenants:    true,
		warmup:     2 * time.Second,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// readCmd is the workload's read request. A tenant read is of the
// hottest tenant, whose summary is always full and which a burst always
// updates; rangeEnd ends the preloaded history, whose last rangeSeconds
// a RANGE read merges.
func (w *workload) readCmd(rangeEnd time.Time) string {
	switch {
	case w.store:
		return fmt.Sprintf("RANGE %d %d TOPK %d", rangeEnd.Unix()-rangeSeconds, rangeEnd.Unix(), topK)
	case w.window:
		return fmt.Sprintf("WIN %d TOPK %d", windowSlots, topK)
	case w.tenants:
		return fmt.Sprintf("TENANT %s TOPK %d", tenantID(0), topK)
	}
	return fmt.Sprintf("TOPK %d", topK)
}

// tenantNames[r] names the tenant of popularity rank r, built once so
// the send loop does not format ids.
var tenantNames = func() []string {
	names := make([]string, tenantIDs)
	for r := range names {
		names[r] = fmt.Sprintf("t%04d", r)
	}
	return names
}()

func tenantID(r int) string { return tenantNames[r] }

// ringShape sizes the input ring: the in-tree stand-in for the paper's
// CAIDA trace, with its 1.75M distinct sources and Zipf 1.1 skew.
type ringShape struct {
	packets, sources int
}

var fullRing = ringShape{packets: 1 << 22, sources: 1_750_000}

// inputs is everything a run sends and checks against, a pure function
// of (workload, seed, ring shape).
type inputs struct {
	wl *workload
	// ring is the packet trace in wire encoding: 16-byte little-endian
	// (source address, packet bits) pairs. Frame f is
	// ring[f*framePairs*16 : (f+1)*framePairs*16], and the frame sent
	// with sequence number s is s mod frames.
	ring   []byte
	frames int
	// frameWeight is each frame's total weight.
	frameWeight []int64
	// probes are the checked keys: the ring's exact top 64 by weight,
	// then 64 seeded random ring keys.
	probes []int64
	// probeW[f*len(probes)+p] is probe p's weight in frame f.
	probeW []int64
	// tenantOf is the tenant rank of the frame with sequence s, at index
	// s mod len(tenantOf); nil for global workloads.
	tenantOf []uint16
	// digest is an FNV-64a hash of all of the above.
	digest uint64
}

func buildInputs(wl *workload, seed uint64, shape ringShape) (*inputs, error) {
	h := fnv.New64a()
	h.Write([]byte(wl.name))
	base := h.Sum64() ^ xrand.Mix64(seed)
	trace, err := streamgen.PacketTrace(streamgen.TraceConfig{
		Packets:         shape.packets,
		DistinctSources: shape.sources,
		Alpha:           1.1,
		Seed:            base,
	})
	if err != nil {
		return nil, err
	}
	if shape.packets%wl.framePairs != 0 {
		return nil, fmt.Errorf("ring of %d packets is not a whole number of %d-pair frames", shape.packets, wl.framePairs)
	}
	in := &inputs{wl: wl, frames: shape.packets / wl.framePairs}
	in.ring = make([]byte, 0, len(trace)*pairSize)
	for _, u := range trace {
		in.ring = binary.LittleEndian.AppendUint64(in.ring, uint64(u.Item))
		in.ring = binary.LittleEndian.AppendUint64(in.ring, uint64(u.Weight))
	}
	in.probes = pickProbes(trace, min(shape.sources, shape.packets), xrand.Mix64(base+1))
	pidx := make(map[int64]int, len(in.probes))
	for i, p := range in.probes {
		pidx[p] = i
	}
	in.frameWeight = make([]int64, in.frames)
	in.probeW = make([]int64, in.frames*len(in.probes))
	for i, u := range trace {
		f := i / wl.framePairs
		in.frameWeight[f] += u.Weight
		if p, ok := pidx[u.Item]; ok {
			in.probeW[f*len(in.probes)+p] += u.Weight
		}
	}
	if wl.tenants {
		z, err := streamgen.NewZipf(tenantAlpha, tenantIDs, xrand.Mix64(base+2))
		if err != nil {
			return nil, err
		}
		in.tenantOf = make([]uint16, 1<<16)
		for i := range in.tenantOf {
			in.tenantOf[i] = uint16(z.Next())
		}
	}

	h.Reset()
	h.Write([]byte(wl.name))
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(wl.framePairs)))
	h.Write(in.ring)
	for _, p := range in.probes {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(p)))
	}
	for _, t := range in.tenantOf {
		h.Write(binary.LittleEndian.AppendUint16(nil, t))
	}
	in.digest = h.Sum64()
	return in, nil
}

// frame returns the wire bytes of the frame with sequence number seq.
func (in *inputs) frame(seq int64) []byte {
	f := int(seq % int64(in.frames))
	n := in.wl.framePairs * pairSize
	return in.ring[f*n : (f+1)*n]
}

// tenant returns the tenant id the frame with sequence seq is scoped to
// ("" for the global summary).
func (in *inputs) tenant(seq int64) string {
	if in.tenantOf == nil {
		return ""
	}
	return tenantID(int(in.tenantOf[seq%int64(len(in.tenantOf))]))
}

// item decodes the item of ring pair i.
func (in *inputs) item(i int) int64 {
	return int64(binary.LittleEndian.Uint64(in.ring[i*pairSize:]))
}

// pairs decodes n ring pairs starting at pair from into columns.
func (in *inputs) pairs(from, n int) (items, weights []int64) {
	items, weights = make([]int64, n), make([]int64, n)
	for i := range n {
		items[i] = in.item(from + i)
		weights[i] = int64(binary.LittleEndian.Uint64(in.ring[(from+i)*pairSize+8:]))
	}
	return items, weights
}

// pickProbes returns the exact top 64 keys of trace by total weight
// (ties by key), then 64 distinct other keys at seeded random positions.
// distinct bounds the number of distinct keys, sizing the count table.
func pickProbes(trace []streamgen.Update, distinct int, seed uint64) []int64 {
	type kv struct{ key, sum int64 }
	size := 1
	for size < 2*distinct {
		size <<= 1
	}
	mask := uint64(size - 1)
	keys := make([]int64, size)
	sums := make([]int64, size)
	for i := range keys {
		keys[i] = -1 // ring keys are IPv4 addresses, never negative
	}
	for _, u := range trace {
		j := xrand.Mix64(uint64(u.Item)) & mask
		for keys[j] != u.Item && keys[j] != -1 {
			j = (j + 1) & mask
		}
		keys[j] = u.Item
		sums[j] += u.Weight
	}
	better := func(a, b kv) int {
		if c := cmp.Compare(b.sum, a.sum); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	}
	top := make([]kv, 0, topK+1)
	nkeys := 0
	for j, k := range keys {
		if k == -1 {
			continue
		}
		nkeys++
		e := kv{k, sums[j]}
		if len(top) == topK && better(e, top[topK-1]) >= 0 {
			continue
		}
		at, _ := slices.BinarySearchFunc(top, e, better)
		top = slices.Insert(top, at, e)
		if len(top) > topK {
			top = top[:topK]
		}
	}
	probes := make([]int64, 0, 2*topK)
	seen := make(map[int64]bool, 2*topK)
	for _, e := range top {
		probes = append(probes, e.key)
		seen[e.key] = true
	}
	rng := xrand.NewSplitMix64(seed)
	for len(probes) < 2*topK && len(seen) < nkeys {
		k := trace[rng.Intn(len(trace))].Item
		if !seen[k] {
			probes = append(probes, k)
			seen[k] = true
		}
	}
	return probes
}
