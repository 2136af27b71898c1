package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/freq"
	"repro/freq/server"
	"repro/freq/store"
	"repro/freq/tenant"
)

// startServer serves the workload's freqd flags with an in-process
// server, so the tests need no freqd build. A store is preloaded as a
// run would preload it, ending at rangeEnd.
func startServer(t *testing.T, in *inputs, rangeEnd time.Time) string {
	t.Helper()
	wl := in.wl
	dir := t.TempDir()
	fs := flag.NewFlagSet("freqd", flag.ContinueOnError)
	k := fs.Int("k", 24576, "")
	shards := fs.Int("shards", 8, "")
	window := fs.Int("window", 0, "")
	rotate := fs.Duration("rotate-every", time.Second, "")
	storeDir := fs.String("store-dir", "", "")
	partition := fs.Duration("store-partition", time.Hour, "")
	tenants := fs.Bool("tenants", false, "")
	maxTenants := fs.Int("max-tenants", 1024, "")
	var args []string
	for _, f := range wl.flags {
		args = append(args, strings.ReplaceAll(f, "{store}", dir))
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if *k != wl.k || *shards != wl.shards || (*window > 0) != wl.window || (*storeDir != "") != wl.store || *tenants != wl.tenants {
		t.Fatalf("%s: flags %q disagree with the workload's fields", wl.name, wl.flags)
	}

	cfg := server.Config{MaxCounters: *k, Shards: *shards, WindowIntervals: *window}
	var st *store.Store[int64]
	if *storeDir != "" {
		if err := preloadStore(in, rangeEnd, *storeDir); err != nil {
			t.Fatal(err)
		}
		var err error
		if st, err = store.Open[int64](*storeDir, store.WithPartitionDuration(*partition)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	if *tenants {
		mgr, err := tenant.New[int64](tenant.Config{MaxCounters: *k, Shards: *shards, MaxTenants: *maxTenants})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tenants = mgr
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	if *window > 0 {
		if st != nil {
			srv.Windowed().SetRotationSink(st, time.Now())
		}
		t.Cleanup(srv.Windowed().StartRotating(*rotate))
	}
	return ln.Addr().String()
}

func noCPU() sample { return sample{} }

// quick returns a copy of the named workload with a short warm-up.
func quick(t *testing.T, name string) *workload {
	wl, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w := *wl
	w.warmup = 100 * time.Millisecond
	return &w
}

// Each workload's driver runs briefly against its server configuration
// and passes every end-of-run check.
func TestWorkloadSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			in := mustInputs(t, quick(t, wl.name), 1)
			rangeEnd := time.Now().Truncate(time.Second)
			// Ingest, reads, ingest; each ingest segment's first stretch is
			// left out.
			const segment = 400 * time.Millisecond
			idles := 0
			r, c, err := runLoad(startServer(t, in, rangeEnd), in, 3*segment, segment, rangeEnd, nil, noCPU, func() error {
				idles++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			attempted, failed := r.counts()
			if failed > 0 || attempted == 0 {
				t.Fatalf("%d of %d requests failed", failed, attempted)
			}
			ss := r.stretches(r.warm, r.end)
			if g, reads := r.ingest(ss...), r.readLatencies(r.rounds); len(ss) != 2*int(segment/stretch-1) || g.items == 0 || len(g.acks) == 0 || len(reads) == 0 || idles != 1 {
				t.Errorf("%d stretches with %d pairs and %d frames answered, %d reads, %d idle calls", len(ss), g.items, len(g.acks), len(reads), idles)
			}
			res, err := verify(c, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range append(res.violations, r.violations...) {
				t.Error(v)
			}
		})
	}
}

// The encoder's global and tenant PAIRS frames are acknowledged with
// their pair count, and the text commands the checks use parse.
func TestWireAgainstServer(t *testing.T) {
	in := mustInputs(t, quick(t, "tenants"), 1)
	c, err := dial(startServer(t, in, time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundTrip := func(cmd string) []byte {
		t.Helper()
		p, err := c.roundTrip(cmd)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		return p
	}
	frame := in.frame(0)
	for _, scope := range []string{"", "t0001"} {
		if err := c.writePairs(scope, frame); err != nil {
			t.Fatal(err)
		}
		p, err := c.readReply(time.Now().Add(opTimeout))
		if err != nil {
			t.Fatal(err)
		}
		if n, err := parseOK(p); err != nil || n != in.wl.framePairs {
			t.Errorf("scope %q: ack %q, want OK %d", scope, p, in.wl.framePairs)
		}
	}
	for _, cmd := range []string{"STATS", "TENANT t0001 STATS"} {
		st, err := parseStats(roundTrip(cmd))
		if err != nil {
			t.Fatal(err)
		}
		if st["n"] != in.frameWeight[0] {
			t.Errorf("%s: n=%d, want %d", cmd, st["n"], in.frameWeight[0])
		}
	}
	rows, err := parseRows(roundTrip("TOPK 5"), nil)
	if err != nil || len(rows) != 5 || checkRows(rows) != nil {
		t.Errorf("TOPK 5: rows %v, err %v", rows, err)
	}
	if _, lb, ub, err := parseEst(roundTrip("EST 7")); err != nil || lb > ub {
		t.Errorf("EST: [%d, %d], err %v", lb, ub, err)
	}
	blob, err := parseSnap(roundTrip("SNAP"))
	if err != nil {
		t.Fatal(err)
	}
	sk, _ := freq.New[int64](in.wl.k)
	if err := sk.UnmarshalBinary(blob); err != nil || sk.StreamWeight() != in.frameWeight[0] {
		t.Errorf("SNAP: weight %d, err %v", sk.StreamWeight(), err)
	}
	if _, err := c.roundTrip("NOPE"); !errors.Is(err, errServer) {
		t.Errorf("unknown command: err %v, want a server ERR", err)
	}
	if _, err := c.roundTrip("STATS"); err != nil {
		t.Errorf("connection unusable after an ERR: %v", err)
	}
}

// A refused frame counts as a failed request, and the load goes on.
func TestServerErrCountsAsFailed(t *testing.T) {
	in := mustInputs(t, quick(t, "ingest"), 1)
	// A negative weight makes the server refuse frame 0 whole.
	binary.LittleEndian.PutUint64(in.ring[8:], math.MaxUint64)
	r, c, err := runLoad(startServer(t, in, time.Now()), in, 1200*time.Millisecond, 400*time.Millisecond, time.Now(), nil, noCPU, nil)
	if err != nil {
		t.Fatalf("an ERR reply broke the load: %v", err)
	}
	c.Close()
	attempted, failed := r.counts()
	if failed == 0 || failed == attempted {
		t.Fatalf("%d of %d requests failed, want some but not all", failed, attempted)
	}
	for _, rec := range r.recs {
		if !rec.ok && (rec.read() || rec.seq%int64(in.frames) != 0) {
			t.Errorf("request %+v failed, want only frame 0 to fail", rec)
		}
	}
}

// A traced run yields every per-layer metric and writes its spans.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	in := mustInputs(t, quick(t, "ingest"), 1)
	tr := &tracer{workload: in.wl.name}
	r, c, err := runLoad(startServer(t, in, time.Now()), in, 2000*time.Millisecond, 400*time.Millisecond, time.Now(), tr, func() sample {
		return sample{self: selfCPU()}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checks, err := verify(c, r)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	res := &result{metrics: map[string]float64{}}
	dir := t.TempDir()
	if err := perLayerMetrics(res, r, tr, checks, dir); err != nil {
		t.Fatal(err)
	}
	for _, s := range perLayerSpecs {
		if v, ok := res.metrics[s.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v)", s.name, v, ok)
		}
	}
	if _, n := tr.total("wire.pairs"); n == 0 {
		t.Error("no wire.pairs spans in the traced segments")
	}
	if _, n := tr.total(in.wl.readOp); n == 0 {
		t.Errorf("no %s spans in the traced segments", in.wl.readOp)
	}
	path := dir + "/spans.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal([]byte(strings.SplitN(string(b), "\n", 2)[0]), &first); err != nil || first.Name != "run.ingest" || first.EndNs <= first.StartNs {
		t.Errorf("first span %+v, err %v", first, err)
	}
}

// BENCHMARK.json at the repository root lists exactly the workloads and
// metrics this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit, Better string }
		specs  []metricSpec
	}{{spec.EndToEnd, endToEndSpecs}, {spec.PerLayer, perLayerSpecs}} {
		if len(c.listed) != len(c.specs) {
			t.Errorf("%d metrics listed, %d reported", len(c.listed), len(c.specs))
			continue
		}
		for i, m := range c.listed {
			if s := c.specs[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("metric %d listed as %+v, reported as %+v", i, m, s)
			}
		}
	}
}
