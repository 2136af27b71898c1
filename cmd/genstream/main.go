// Command genstream generates the synthetic workloads of the paper's
// evaluation (§4: the stand-in for the §4.1 packet trace, Zipf streams,
// and the §4.2 adversarial stream) to a file or stdout, in the text or
// binary stream formats read by cmd/freq and cmd/experiments.
//
// Usage:
//
//	genstream -kind trace -n 4000000 -o trace.bin -format binary
//	genstream -kind zipf -alpha 1.05 -n 1000000 -maxweight 10000
//	genstream -kind adversarial -k 1024 -n 100000
//	genstream -kind trace -n 1000000 -push localhost:7077
//
// With -push, the workload is streamed into a running freqd server in
// wire batches instead of written to a file. -wire picks the framing:
// auto (the default) negotiates the binary pairs-frame protocol and
// falls back to text UB blocks against servers that predate it; binary
// requires the upgrade; text skips negotiation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/freq/server"
	"repro/freq/stream"
)

func main() {
	var (
		kind      = flag.String("kind", "trace", "workload: trace, zipf, or adversarial")
		n         = flag.Int("n", 1_000_000, "stream length")
		out       = flag.String("o", "", "output file (default stdout)")
		format    = flag.String("format", "text", "output format: text or binary")
		alpha     = flag.Float64("alpha", 1.05, "zipf skew (zipf kind)")
		universe  = flag.Int("universe", 1<<18, "distinct items (zipf and trace kinds)")
		maxWeight = flag.Int64("maxweight", 10000, "uniform weight upper bound (zipf kind)")
		k         = flag.Int("k", 1024, "counter budget targeted by the adversarial stream")
		seed      = flag.Uint64("seed", 0xCA1DA, "generator seed")
		push      = flag.String("push", "", "stream the workload to a freqd server at this address instead of writing it")
		batch     = flag.Int("batch", 8192, "updates per wire batch when pushing")
		wire      = flag.String("wire", "auto", "push framing: auto (negotiate binary, fall back to text), binary, or text")
	)
	flag.Parse()

	var (
		updates []stream.Update
		err     error
	)
	switch *kind {
	case "trace":
		updates, err = stream.PacketTrace(stream.TraceConfig{
			Packets:         *n,
			DistinctSources: *universe,
			Alpha:           1.1,
			Seed:            *seed,
		})
	case "zipf":
		updates, err = stream.ZipfStream(*alpha, *universe, *n, *maxWeight, *seed)
	case "adversarial":
		updates = stream.Adversarial(*k, int64(*n))
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fatal(err)
	}

	if *push != "" {
		if err := pushStream(*push, updates, *batch, *wire); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "genstream: pushed %d updates (N=%d) to %s\n",
			len(updates), stream.TotalWeight(updates), *push)
		return
	}

	w, closeOut := openOutput(*out)
	defer closeOut()
	switch *format {
	case "text":
		err = stream.WriteText(w, updates)
	case "binary":
		err = stream.WriteBinary(w, updates)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "genstream: wrote %d updates (N=%d)\n", len(updates), stream.TotalWeight(updates))
}

// pushStream ships the workload to a freqd server in wire batches (one
// round trip per batchSize updates): binary pairs frames when the
// server speaks them, text UB blocks otherwise, per the wire policy.
func pushStream(addr string, updates []stream.Update, batchSize int, wire string) error {
	if batchSize < 1 {
		return fmt.Errorf("batch size %d must be positive", batchSize)
	}
	var opts []server.ClientOption
	if wire == "auto" || wire == "binary" {
		opts = append(opts, server.WithBinary())
	} else if wire != "text" {
		return fmt.Errorf("bad -wire %q (want auto, binary, or text)", wire)
	}
	c, err := server.Dial[int64](addr, opts...)
	if err != nil {
		return err
	}
	defer c.Close()
	if wire == "binary" && !c.Binary() {
		return fmt.Errorf("server at %s declined binary framing (use -wire auto for fallback)", addr)
	}
	items, weights := stream.Columns(updates)
	for lo := 0; lo < len(items); lo += batchSize {
		hi := min(lo+batchSize, len(items))
		if err := c.UpdateBatch(items[lo:hi], weights[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// openOutput returns the stream destination and a close func: stdout
// (with a no-op close) when path is empty, otherwise the created file.
func openOutput(path string) (io.Writer, func()) {
	if path == "" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genstream:", err)
	os.Exit(1)
}
