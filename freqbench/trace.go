package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval, written as one JSON object per line.
// Parent is the id of the span that caused it (0 for a root); spans of
// one workload run share the root "run.<workload>".
type span struct {
	Name     string `json:"name"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends. Span ids are
// positions in spans plus one.
type tracer struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, startNs, endNs int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{name, id, parent, t.workload, startNs, endNs})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent int64) int64 {
	return t.add(name, parent, time.Now().UnixNano(), 0)
}

func (t *tracer) end(id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = time.Now().UnixNano()
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent int64, fn func()) {
	start := time.Now().UnixNano()
	fn()
	t.add(name, parent, start, time.Now().UnixNano())
}

// total returns the summed length and count of the spans named name.
func (t *tracer) total(name string) (sum time.Duration, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			sum += time.Duration(s.EndNs - s.StartNs)
			n++
		}
	}
	return sum, n
}

// write saves the spans to path, one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
