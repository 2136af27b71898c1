// Command freq streams "item weight" records from a file (or stdin)
// through a frequent-items summary and reports heavy hitters and point
// queries — the end-user shape of the §1.2 problem statement. With
// -cluster it skips local ingestion and runs the same queries against a
// fleet of freqd servers instead, merging their summaries at the
// coordinator (the §3 mergeability story): one query surface, local or
// distributed.
//
// Usage:
//
//	freq [flags] [stream-file]
//
// The stream file is the text or binary format of cmd/genstream; "-" or
// no argument reads text records from stdin. Examples:
//
//	genstream -kind trace -n 1000000 | freq -k 1024 -phi 0.01
//	freq -k 4096 -algo smin -top 20 trace.bin
//	freq -k 1024 -query 12345,9876 trace.txt
//	freq -cluster host1:7070,host2:7070 -top 20
//
// With -window the stream replays through a sliding window instead of
// one all-time summary: every -rotate-every records close an interval
// and rotate the ring, -rolling prints the rolling top-N at each
// boundary, and the final report covers only the records still inside
// the window (-win narrows it further). Against a fleet, -win scopes
// the cluster queries to each node's last w live intervals:
//
//	freq -k 1024 -window 60 -rotate-every 10000 -rolling 5 trace.bin
//	freq -cluster host1:7070,host2:7070 -win 5 -top 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/freq"
	"repro/freq/server"
	"repro/freq/stream"
)

func main() {
	var (
		k        = flag.Int("k", 1024, "maximum number of tracked counters")
		algo     = flag.String("algo", "smed", "decrement policy: smed, smin, or a quantile like 0.7")
		phi      = flag.Float64("phi", 0, "report items with frequency > phi*N (0 = use the sketch's own error band)")
		top      = flag.Int("top", 0, "report only the top-N rows (0 = all qualifying)")
		noFP     = flag.Bool("nofp", false, "no-false-positives extraction (default: no false negatives)")
		queries  = flag.String("query", "", "comma-separated item ids to point-query instead of listing heavy hitters")
		dumpFile = flag.String("serialize", "", "also write the serialized sketch to this file")
		cluster  = flag.String("cluster", "", "comma-separated freqd addresses: query the fleet's merged summary instead of ingesting locally (-k/-algo/-serialize and the stream file do not apply)")
		window   = flag.Int("window", 0, "replay the stream through a sliding window of this many intervals (0 = one all-time summary)")
		rotEvery = flag.Int("rotate-every", 100000, "records per window interval (with -window)")
		rolling  = flag.Int("rolling", 0, "print the rolling top-N at every rotation (with -window)")
		win      = flag.Int("win", 0, "scope the final report to the last w intervals (local -window ring or -cluster nodes' windows; 0 = full window / all-time)")
	)
	flag.Parse()

	if *win > 0 && *window == 0 && *cluster == "" {
		fatal(fmt.Errorf("-win scopes a window: combine it with -window (local) or -cluster (fleet)"))
	}

	// src is the one read surface the reporting below runs against —
	// identical for a locally-ingested sketch, a windowed replay, and a
	// remote fleet.
	var src freq.Queryable[int64]
	if *cluster != "" {
		// Cluster mode queries remote summaries: local-ingest flags would
		// be silently dead, so reject them loudly.
		if flag.Arg(0) != "" {
			fatal(fmt.Errorf("-cluster queries remote servers; stream file %q would be ignored", flag.Arg(0)))
		}
		if *dumpFile != "" {
			fatal(fmt.Errorf("-serialize is incompatible with -cluster (the summary lives on the servers; use their SNAP command)"))
		}
		cl, err := server.DialCluster[int64](strings.Split(*cluster, ","),
			server.WithNodeTimeout(5*time.Second))
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		if *win > 0 {
			// Window-scoped fan-out: merge every node's last w intervals.
			if err := cl.RefreshWindow(*win); err != nil {
				fatal(err)
			}
			fmt.Printf("cluster of %d nodes (last %d intervals): N=%d, err=%d\n",
				cl.Nodes(), *win, cl.StreamWeight(), cl.MaximumError())
		} else {
			if err := cl.Refresh(); err != nil {
				fatal(err)
			}
			fmt.Printf("cluster of %d nodes: N=%d, err=%d\n",
				cl.Nodes(), cl.StreamWeight(), cl.MaximumError())
		}
		if m := cl.Manifest(); m.Degraded() {
			// The merged numbers below cover only the answering subset:
			// say so, and name the nodes that are missing from them.
			fmt.Fprintf(os.Stderr, "warning: %d/%d nodes answered; missing: %s\n",
				m.Healthy(), cl.Nodes(), strings.Join(m.Dead(), ", "))
		}
		src = cl
	} else if *window > 0 {
		src = ingestWindowed(*k, *algo, *window, *rotEvery, *rolling, *win, *dumpFile, flag.Arg(0))
	} else {
		sketch, err := newSketch(*k, *algo)
		if err != nil {
			fatal(err)
		}
		updates, err := readStream(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		// Ingest through the batch path: one growth/decrement check per
		// chunk instead of per update.
		items, weights := stream.Columns(updates)
		if err := sketch.UpdateWeightedBatch(items, weights); err != nil {
			fatal(fmt.Errorf("ingest %d updates: %w", len(updates), err))
		}
		fmt.Println(sketch)
		if *dumpFile != "" {
			defer dump(sketch, *dumpFile)
		}
		src = sketch
	}

	if *queries != "" {
		for _, q := range strings.Split(*queries, ",") {
			item, err := strconv.ParseInt(strings.TrimSpace(q), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad query item %q", q))
			}
			fmt.Printf("item %d: estimate=%d bounds=[%d, %d]\n",
				item, src.Estimate(item), src.LowerBound(item), src.UpperBound(item))
		}
	} else {
		et := freq.NoFalseNegatives
		if *noFP {
			et = freq.NoFalsePositives
		}
		threshold := src.MaximumError()
		if *phi > 0 {
			threshold = int64(*phi * float64(src.StreamWeight()))
		}
		q := freq.From[int64](src).Where(threshold).WithErrorType(et)
		if *top > 0 {
			q = q.Limit(*top)
		}
		rows := q.Collect()
		fmt.Printf("%d heavy hitters above threshold %d (%s):\n", len(rows), threshold, et)
		for i, r := range rows {
			fmt.Printf("%4d. item=%-12d est=%-12d lb=%-12d ub=%d\n",
				i+1, r.Item, r.Estimate, r.LowerBound, r.UpperBound)
		}
	}
}

// algoOptions maps -algo onto construction options shared by the
// all-time and windowed ingest paths.
func algoOptions(algo string) ([]freq.Option, error) {
	switch algo {
	case "smed":
		return nil, nil
	case "smin":
		return []freq.Option{freq.WithSMIN()}, nil
	default:
		q, err := strconv.ParseFloat(algo, 64)
		if err != nil {
			return nil, fmt.Errorf("unknown algo %q (want smed, smin, or a quantile)", algo)
		}
		if q == 0 {
			return []freq.Option{freq.WithSMIN()}, nil
		}
		return []freq.Option{freq.WithQuantile(q)}, nil
	}
}

func newSketch(k int, algo string) (*freq.Sketch[int64], error) {
	opts, err := algoOptions(algo)
	if err != nil {
		return nil, err
	}
	return freq.New[int64](k, opts...)
}

// ingestWindowed replays the stream through a sliding window: every
// rotEvery records close one interval and rotate the ring, so the
// stream's tail ages the head out of scope exactly as wall-clock
// rotation would in a live collector. Returns the read surface for the
// final report: the full window, or its last win intervals.
func ingestWindowed(k int, algo string, window, rotEvery, rolling, win int, dumpFile, path string) freq.Queryable[int64] {
	if rotEvery < 1 {
		fatal(fmt.Errorf("-rotate-every must be >= 1, got %d", rotEvery))
	}
	opts, err := algoOptions(algo)
	if err != nil {
		fatal(err)
	}
	cw, err := freq.NewConcurrentWindowed[int64](k, window, opts...)
	if err != nil {
		fatal(err)
	}
	updates, err := readStream(path)
	if err != nil {
		fatal(err)
	}
	items, weights := stream.Columns(updates)
	interval := 0
	for lo := 0; lo < len(items); lo += rotEvery {
		hi := min(lo+rotEvery, len(items))
		if err := cw.UpdateWeightedBatch(items[lo:hi], weights[lo:hi]); err != nil {
			fatal(fmt.Errorf("ingest records %d..%d: %w", lo, hi, err))
		}
		interval++
		if rolling > 0 {
			fmt.Printf("interval %d (records %d..%d), rolling top %d:\n", interval, lo, hi, rolling)
			for i, r := range cw.Query().Limit(rolling).Collect() {
				fmt.Printf("  %2d. item=%-12d est=%d\n", i+1, r.Item, r.Estimate)
			}
		}
		if hi < len(items) {
			cw.Rotate()
		}
	}
	fmt.Println(cw)
	if dumpFile != "" {
		// The whole ring ships, intervals intact; decode with
		// freq.ConcurrentWindowed.UnmarshalBinary.
		defer dump(cw, dumpFile)
	}
	if win > 0 {
		return cw.Last(win)
	}
	return cw
}

// dump serializes a summary (single sketch or whole windowed ring) to
// path.
func dump(src io.WriterTo, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	n, err := src.WriteTo(f)
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("serialized %d bytes to %s\n", n, path)
}

// readStream loads a text or binary stream file; "-" or "" reads text
// from stdin.
func readStream(path string) ([]stream.Update, error) {
	if path == "" || path == "-" {
		return stream.ReadText(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Try binary first; fall back to text.
	if updates, err := stream.ReadBinary(f); err == nil {
		return updates, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return stream.ReadText(f)
}

// fatal prints err under the command's prefix, once: the freq package's
// errors already carry it.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "freq:", strings.TrimPrefix(err.Error(), "freq: "))
	os.Exit(1)
}
