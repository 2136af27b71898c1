package freq_test

import (
	"fmt"

	"repro/freq"
)

// ExampleNew tracks byte counts per source and answers point queries
// with deterministic bracketing bounds.
func ExampleNew() {
	sk, err := freq.New[uint64](1024)
	if err != nil {
		panic(err)
	}
	sk.Update(0x0A4D0001, 1500) // source 10.77.0.1 sent a 1500-byte packet
	sk.Update(0x0A4D0001, 9000)
	sk.Update(0xC0A80101, 40)

	fmt.Println(sk.Estimate(0x0A4D0001))
	fmt.Println(sk.LowerBound(0x0A4D0001) <= 10500 && 10500 <= sk.UpperBound(0x0A4D0001))
	// Output:
	// 10500
	// true
}

// ExampleNewConcurrentWindowed keeps a rolling top-k over the last 3
// intervals: each Rotate retires the oldest interval, so early traffic
// ages out of the window while an all-time sketch would remember it
// forever.
func ExampleNewConcurrentWindowed() {
	cw, err := freq.NewConcurrentWindowed[string](64, 3)
	if err != nil {
		panic(err)
	}
	cw.Update("old-hot-flow", 9000)
	cw.Rotate()
	cw.Update("steady-flow", 400)
	cw.Rotate()
	cw.Update("steady-flow", 500)

	for _, r := range cw.Query().Limit(2).Collect() { // window still covers all three intervals
		fmt.Println(r.Item, r.Estimate)
	}
	cw.Rotate() // "old-hot-flow"'s interval leaves the window
	for _, r := range cw.Query().Limit(2).Collect() {
		fmt.Println(r.Item, r.Estimate)
	}
	fmt.Println(cw.Last(1).StreamWeight()) // the fresh head interval is empty
	// Output:
	// old-hot-flow 9000
	// steady-flow 900
	// steady-flow 900
	// 0
}

// ExampleQuery_Limit feeds a small weighted stream in one batch and
// lists the heaviest items: a limited query is the top k.
func ExampleQuery_Limit() {
	sk, err := freq.New[string](64)
	if err != nil {
		panic(err)
	}
	items := []string{"web", "api", "db", "api", "web", "api"}
	weights := []int64{10, 40, 5, 40, 10, 20}
	if err := sk.UpdateWeightedBatch(items, weights); err != nil {
		panic(err)
	}
	for _, row := range sk.Query().Limit(2).Collect() {
		fmt.Printf("%s %d\n", row.Item, row.Estimate)
	}
	// Output:
	// api 100
	// web 20
}

// ExampleSketch_Query composes a query with the iterator-based builder:
// threshold filtering, deterministic ordering, and pagination — the
// same builder runs against Sketch, Concurrent, Signed, and the wire
// clients in freq/server.
func ExampleSketch_Query() {
	sk, err := freq.New[string](64)
	if err != nil {
		panic(err)
	}
	items := []string{"web", "api", "db", "cache", "api", "web"}
	weights := []int64{10, 40, 5, 30, 40, 10}
	if err := sk.UpdateWeightedBatch(items, weights); err != nil {
		panic(err)
	}
	for item, row := range sk.Query().Where(15).Limit(2).All() {
		fmt.Printf("%s %d\n", item, row.Estimate)
	}
	// Output:
	// api 80
	// cache 30
}

// ExampleConcurrent_View freezes a snapshot-isolated read view: the
// view keeps answering from its state no matter what lands on the live
// sketch, and repeated reads of an unchanged sketch reuse the cached
// merged view for free.
func ExampleConcurrent_View() {
	c, err := freq.NewConcurrent[int64](1024, freq.WithShards(4))
	if err != nil {
		panic(err)
	}
	c.Update(7, 100)
	v, err := c.View()
	if err != nil {
		panic(err)
	}
	c.Update(7, 50) // lands on the live sketch, not the frozen view
	fmt.Println(v.Estimate(7))
	fmt.Println(c.Estimate(7))
	// Output:
	// 100
	// 150
}

// ExampleNewConcurrent shares one sketch between goroutines; every
// Update takes only its own shard's lock.
func ExampleNewConcurrent() {
	c, err := freq.NewConcurrent[int64](4096, freq.WithShards(4))
	if err != nil {
		panic(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Update(7, 2)
		}
	}()
	for i := 0; i < 1000; i++ {
		c.Update(7, 3)
	}
	<-done
	fmt.Println(c.Estimate(7))
	fmt.Println(c.StreamWeight())
	// Output:
	// 5000
	// 5000
}

// ExampleWriter is the batched ingestion hot path: each goroutine owns a
// buffered Writer and the shared Concurrent sketch is the only
// synchronization point. Close flushes the tail of the buffer.
func ExampleWriter() {
	c, err := freq.NewConcurrent[int64](4096)
	if err != nil {
		panic(err)
	}
	w, err := freq.NewWriter(c, freq.WithBatchSize(256))
	if err != nil {
		panic(err)
	}
	for i := 0; i < 100; i++ {
		w.Add(int64(i%10), 5) // buffered: no lock taken yet
	}
	fmt.Println(c.StreamWeight()) // nothing flushed so far
	if err := w.Close(); err != nil {
		panic(err)
	}
	fmt.Println(c.StreamWeight())
	fmt.Println(c.Estimate(3))
	// Output:
	// 0
	// 500
	// 50
}
