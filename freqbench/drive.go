package main

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// opRec is one request's timeline in nanoseconds since the run's epoch.
type opRec struct {
	// seq is the frame sequence number of a PAIRS request, -1 for a read.
	seq int64
	// sent and wrote bracket handing the request to the socket; done is
	// when its reply was read, or when sending it failed.
	sent, wrote, done int64
	ok                bool
	// burst marks a frame of a read round's burst.
	burst bool
}

func (o *opRec) read() bool { return o.seq < 0 }

// round is one burst of a read segment and the read after it.
type round struct {
	// burst is the time from the burst's first frame sent to its last
	// acknowledgement; read indexes the read in loadRun.recs.
	burst time.Duration
	read  int
}

// sample is the daemon's and the benchmark's resource use at one
// instant of the timed window.
type sample struct {
	// server and self are the CPU time freqd and the benchmark have used
	// so far.
	server, self time.Duration
	// serverRSS is freqd's resident set in MiB.
	serverRSS float64
}

const (
	// samplePeriod is how often the timed window is sampled.
	samplePeriod = 100 * time.Millisecond
	// stretch is the unit the ingest segments are measured in, a whole
	// number of sample periods; segments are whole numbers of stretches.
	stretch = samplePeriod
	// inflightPairs is how many pairs, in whole frames, the benchmark
	// keeps unacknowledged: over half a millisecond of the daemon's work,
	// so it always has the next frame buffered and never idles while this
	// process is descheduled, and throughput measures the daemon.
	inflightPairs = 1 << 14
	// burstPairs is how many pairs, in whole frames, precede each read of
	// a read segment. They keep the summaries changing, so no read is
	// answered from a cache and every dashboard window slot stays full,
	// and the burst's length gauges how fast the host runs the daemon
	// just before the read.
	burstPairs = 1 << 16
)

// loadRun is one run of a workload against a daemon over one
// connection. Frames flow from the epoch through the warm-up; the timed
// window [warm, end) is cut into segments that alternate, from the
// first, between ingest (frames in a closed loop) and reads (rounds of
// a burst of frames and one read). A traced run records spans for the
// requests sent from traceFrom on.
type loadRun struct {
	wl      *workload
	in      *inputs
	epoch   time.Time
	warm    int64
	end     int64
	segment int64
	// traceFrom starts an ingest segment near the middle of the window in
	// a traced run; it is past end otherwise.
	traceFrom int64
	// rangeEnd ends the history workload's preloaded day.
	rangeEnd time.Time
	tr       *tracer
	root     int64
	// seq is the next frame sequence number.
	seq atomic.Int64
	// recs is the request log, appended by one goroutine at a time.
	recs []opRec
	// rounds are the read segments' rounds.
	rounds []round
	// samples[i] was taken at warm + i*samplePeriod, from warm through end.
	samples []sample

	mu         sync.Mutex
	violations []string
}

func (r *loadRun) now() int64 { return int64(time.Since(r.epoch)) }

func (r *loadRun) sleepUntil(t int64) {
	if d := time.Duration(t - r.now()); d > 0 {
		time.Sleep(d)
	}
}

func (r *loadRun) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// runLoad drives the workload at addr: warm-up, then a timed window of
// alternating ingest and read segments, window a whole number of
// segments and segment at least two stretches. probe is sampled at every
// period boundary of the window; idle, if not nil, runs at the start of
// each read segment, while the daemon has no request to serve. The
// connection is returned open, with every request answered, for the
// end-of-run checks.
func runLoad(addr string, in *inputs, window, segment time.Duration, rangeEnd time.Time, tr *tracer, probe func() sample, idle func() error) (*loadRun, *conn, error) {
	if segment < 2*stretch || segment%stretch != 0 || window <= 0 || window%segment != 0 {
		return nil, nil, fmt.Errorf("a window of %s does not cut into segments of %s, each two or more %s stretches", window, segment, stretch)
	}
	c, err := dial(addr)
	if err != nil {
		return nil, nil, err
	}
	wl := in.wl
	r := &loadRun{wl: wl, in: in, tr: tr, rangeEnd: rangeEnd, warm: int64(wl.warmup), segment: int64(segment)}
	r.end = r.warm + int64(window)
	r.traceFrom = math.MaxInt64
	if tr != nil {
		r.traceFrom = r.warm + int64(window/segment/2&^1)*r.segment
	}
	r.epoch = time.Now()
	if tr != nil {
		r.root = tr.begin("run."+wl.name, 0)
	}

	errc := make(chan error, 1)
	go func() { errc <- r.drive(c, idle) }()
	for t := r.warm; t <= r.end; t += int64(samplePeriod) {
		r.sleepUntil(t)
		r.samples = append(r.samples, probe())
	}
	err = <-errc
	if tr != nil {
		tr.end(r.root)
	}
	if err != nil {
		c.Close()
		return r, nil, err
	}
	return r, c, nil
}

// drive sends frames through the warm-up and the first segment, then
// runs each segment in turn. A read goes out once its burst is
// acknowledged, on the same connection, whose buffered ingest the read
// flushes first, so it waits for the daemon alone and always finds the
// summary changed.
func (r *loadRun) drive(c *conn, idle func() error) error {
	frames := burstPairs / r.wl.framePairs
	var rows []row
	for i := int64(0); r.warm+i*r.segment < r.end; i++ {
		until := r.warm + (i+1)*r.segment
		if i%2 == 0 {
			if err := r.frames(c, false, func(int) bool { return r.now() < until }); err != nil {
				return err
			}
			continue
		}
		if idle != nil {
			if err := idle(); err != nil {
				return err
			}
		}
		for r.now() < until {
			start := r.now()
			if err := r.frames(c, true, func(sent int) bool { return sent < frames }); err != nil {
				return err
			}
			rd := round{burst: time.Duration(r.now() - start), read: len(r.recs)}
			var err error
			if rows, err = r.read(c, rows); err != nil {
				return err
			}
			r.rounds = append(r.rounds, rd)
		}
	}
	return nil
}

// frames sends frames on c while more(frames sent so far) holds, with
// up to inflightPairs unacknowledged, and returns once all are
// answered. A reader goroutine takes each acknowledgement as it lands,
// so it is timed then, not when the sender next looks.
func (r *loadRun) frames(c *conn, burst bool, more func(sent int) bool) error {
	// slots holds one token per unacknowledged frame; pending carries the
	// sent frames to the reader, never more than slots allows.
	inflight := inflightPairs / r.wl.framePairs
	slots := make(chan struct{}, inflight)
	pending := make(chan opRec, inflight)
	var readErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rec := range pending {
			if rec.done != 0 || readErr != nil {
				// The frame was never sent, or the stream broke before its
				// reply: it failed.
				rec.done = max(rec.done, r.now())
			} else if err := r.ack(c, &rec); err != nil && !errors.Is(err, errServer) {
				readErr = err
			}
			r.record(rec)
			<-slots
		}
	}()

	var writeErr error
	for sent := 0; ; sent++ {
		slots <- struct{}{}
		if !more(sent) {
			break
		}
		rec := opRec{seq: r.seq.Add(1) - 1, sent: r.now(), burst: burst}
		writeErr = c.writePairs(r.in.tenant(rec.seq), r.in.frame(rec.seq))
		rec.wrote = r.now()
		if writeErr != nil {
			rec.done = rec.wrote
		}
		pending <- rec
		if writeErr != nil {
			break
		}
	}
	close(pending)
	<-done
	return errors.Join(writeErr, readErr)
}

// ack reads the acknowledgement of frame rec, filling in its completion.
func (r *loadRun) ack(c *conn, rec *opRec) error {
	p, err := c.readReply(r.epoch.Add(time.Duration(rec.wrote) + opTimeout))
	rec.done = r.now()
	if err != nil {
		return err
	}
	n, err := parseOK(p)
	if err != nil {
		return err
	}
	if n != r.wl.framePairs {
		return fmt.Errorf("frame of %d pairs acknowledged as %d", r.wl.framePairs, n)
	}
	rec.ok = true
	return nil
}

// read sends the workload's read on c and checks its reply. A reply
// that breaks the row checks is a violation against the run; an ERR
// reply fails the request and the load goes on.
func (r *loadRun) read(c *conn, rows []row) ([]row, error) {
	rec := opRec{seq: -1, sent: r.now()}
	err := c.writeCmd(r.wl.readCmd(r.rangeEnd))
	rec.wrote = r.now()
	var p []byte
	if err == nil {
		p, err = c.readReply(r.epoch.Add(time.Duration(rec.wrote) + opTimeout))
	}
	if err == nil {
		rows, err = parseRows(p, rows)
	}
	rec.done = r.now()
	if err == nil {
		rec.ok = true
		if err := checkRows(rows); err != nil {
			r.violate("%s reply: %v", r.wl.readOp, err)
		}
	}
	r.record(rec)
	if errors.Is(err, errServer) {
		return rows, nil
	}
	return rows, err
}

// record logs rec. A traced run adds spans for the requests sent from
// traceFrom on.
func (r *loadRun) record(rec opRec) {
	r.recs = append(r.recs, rec)
	if r.tr == nil || rec.sent < r.traceFrom {
		return
	}
	at := func(t int64) int64 { return r.epoch.UnixNano() + t }
	if rec.read() {
		r.tr.add(r.wl.readOp, r.root, at(rec.sent), at(rec.done))
		return
	}
	id := r.tr.add("wire.pairs", r.root, at(rec.sent), at(rec.done))
	r.tr.add("loadgen.encode", id, at(rec.sent), at(rec.wrote))
}

// stretches cuts the ingest segments within [from, to) into stretches.
// Each segment's first stretch is left out: it may still hold the end of
// the read round before it.
func (r *loadRun) stretches(from, to int64) [][2]int64 {
	var out [][2]int64
	for s := r.warm; s < r.end; s += 2 * r.segment {
		for t := s + int64(stretch); t+int64(stretch) <= s+r.segment; t += int64(stretch) {
			if t >= from && t+int64(stretch) <= to {
				out = append(out, [2]int64{t, t + int64(stretch)})
			}
		}
	}
	return out
}

// ingested is what the ingest segments did over stretches ss.
type ingested struct {
	// items are the pairs of the frames acknowledged within the
	// stretches, over their length seconds.
	items   int64
	seconds float64
	// acks are the milliseconds from send to acknowledgement of the
	// frames sent within the stretches.
	acks []float64
	// server and self are the CPU time freqd and the benchmark used.
	server, self time.Duration
}

func (in ingested) rate() float64 { return float64(in.items) / in.seconds }

func (in ingested) serverNsPerItem() float64 {
	return float64(in.server.Nanoseconds()) / float64(in.items)
}

// ingest measures the ingest segments' frames over stretches ss.
func (r *loadRun) ingest(ss ...[2]int64) ingested {
	var g ingested
	for _, s := range ss {
		from, to := s[0], s[1]
		g.seconds += time.Duration(to - from).Seconds()
		a, b := r.sampleAt(from), r.sampleAt(to)
		g.server += b.server - a.server
		g.self += b.self - a.self
	}
	for _, rec := range r.recs {
		if !rec.ok || rec.read() || rec.burst {
			continue
		}
		for _, s := range ss {
			if rec.done >= s[0] && rec.done < s[1] {
				g.items += int64(r.wl.framePairs)
			}
			if rec.sent >= s[0] && rec.sent < s[1] {
				g.acks = append(g.acks, float64(rec.done-rec.sent)/1e6)
			}
		}
	}
	return g
}

// readLatencies returns the milliseconds from send to reply of the
// successful reads of rounds.
func (r *loadRun) readLatencies(rounds []round) []float64 {
	var ms []float64
	for _, rd := range rounds {
		if rec := r.recs[rd.read]; rec.ok {
			ms = append(ms, float64(rec.done-rec.sent)/1e6)
		}
	}
	return ms
}

// fastestRounds returns the n rounds with the shortest bursts. A burst
// is a fixed amount of work, so its length shows how fast the shared
// host ran the daemon just before the read.
func (r *loadRun) fastestRounds(n int) []round {
	rs := slices.Clone(r.rounds)
	slices.SortFunc(rs, func(a, b round) int { return cmp.Compare(a.burst, b.burst) })
	return rs[:min(n, len(rs))]
}

// sampleAt returns the sample taken at t, a period boundary of the timed
// window.
func (r *loadRun) sampleAt(t int64) sample {
	return r.samples[(t-r.warm)/int64(samplePeriod)]
}

// counts returns the requests attempted and failed over the whole run.
func (r *loadRun) counts() (attempted, failed int) {
	for _, rec := range r.recs {
		attempted++
		if !rec.ok {
			failed++
		}
	}
	return attempted, failed
}
