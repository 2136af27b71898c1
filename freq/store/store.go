package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/freq"
)

// ErrClosed rejects operations on a closed store.
var ErrClosed = errors.New("store: closed")

// maxQueryBudget caps a range query's merged counter budget so a query
// over a very long history cannot demand a table beyond the fast path's
// maximum. Beyond the cap the merge may evict — answers stay within the
// merged error band (Theorem 5), they just stop being exact.
const maxQueryBudget = 32 << 20

// options is the resolved store configuration.
type options struct {
	span        time.Duration
	codec       Codec
	retainAge   time.Duration
	retainBytes int64
	sync        bool
}

// Option configures a store at Open.
type Option func(*options) error

// WithPartitionDuration sets the wall-clock width of one partition file
// (default one minute): a slot whose start falls in
// [n·d, (n+1)·d) lands in partition n. Wider partitions mean fewer
// files and manifest commits; narrower ones mean finer-grained
// retention and compaction.
func WithPartitionDuration(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("store: partition duration must be positive, got %s", d)
		}
		o.span = d
		return nil
	}
}

// WithCodec sets the block compression for new appends (default the
// built-in LZ). History stays readable across codec changes: every
// block records the codec that encoded it.
func WithCodec(c Codec) Option {
	return func(o *options) error {
		if c == nil {
			return errors.New("store: nil codec")
		}
		o.codec = c
		return nil
	}
}

// WithRetentionAge drops partitions whose entire coverage is older than
// age, the one receiving appends included (checked at each append to a
// history and, for every history, via EnforceRetention). Zero, the
// default, keeps everything.
func WithRetentionAge(age time.Duration) Option {
	return func(o *options) error {
		if age < 0 {
			return fmt.Errorf("store: negative retention age %s", age)
		}
		o.retainAge = age
		return nil
	}
}

// WithRetentionBytes drops oldest partitions while a history exceeds n
// bytes on disk (the partition receiving its appends is never dropped).
// The budget applies per history: the default history and each tenant
// history under tenants/ may each hold n bytes. Zero, the default, sets
// no byte budget.
func WithRetentionBytes(n int64) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("store: negative retention budget %d", n)
		}
		o.retainBytes = n
		return nil
	}
}

// WithSync fsyncs each appended block (and manifest commit) before
// acknowledging it. Off by default: the OS page cache decides, and a
// crash can cost the latest blocks but never the intact prefix.
func WithSync(on bool) Option {
	return func(o *options) error {
		o.sync = on
		return nil
	}
}

// Store is a durable, append-only, time-partitioned log of retired
// sketch slots: the on-disk continuation of a ConcurrentWindowed ring.
// It implements freq.RotationSink, so installing it on a window
// (ConcurrentWindowed.SetRotationSink) persists every interval the
// moment it finishes; Query then serves arbitrary historical ranges
// through the same freq.Queryable surface the live window serves.
//
// Beside this default history, a Store keeps one history per tenant
// under <dir>/tenants/<escaped-id>/ (AppendTenant, QueryTenantInto):
// the durable side of freq/tenant's eviction, so an evicted tenant's
// summary survives churn and restarts.
//
// A Store is safe for concurrent use: appends and maintenance serialize
// behind a write lock, queries share a read lock and fan partition
// decoding out over a bounded worker pool, which the tenant histories
// share. Tenant histories sit behind a lock of their own that the
// default history never takes, so a tenant append or query never
// stalls the window's rotation sink.
type Store[T comparable] struct {
	dir   string
	opt   options
	serde freq.SerDe[T]
	// decoders resolves each block's recorded codec ID at read time.
	decoders map[uint8]Codec

	mu      sync.RWMutex
	parts   []*partition
	cur     *partition // partition receiving appends; nil before the first
	nextSeq uint64
	closed  bool
	// append-side scratch, reused under mu: raw encoding, compressed
	// encoding, partition header.
	encBuf []byte
	cmpBuf []byte
	hdrBuf []byte

	// jobs feeds the decode workers Open starts for the default history;
	// its tenant histories send on the same channel and own no workers.
	jobs        chan job[T]
	workerWG    sync.WaitGroup
	qPool       sync.Pool // *rangeQuery[T]
	scratchPool sync.Pool // *scratch

	// tmu guards the tenant histories, keyed by their escaped directory
	// names: each is a Store of its own, opened on first use and closed
	// least recently used beyond maxOpen (its manifest committed), to
	// reopen on the next touch.
	tmu sync.Mutex
	//freq:guardedBy(tmu)
	tenants map[string]*tenantEntry[T]
	//freq:guardedBy(tmu)
	tenantUse uint64
	//freq:guardedBy(tmu)
	maxOpen int
	//freq:guardedBy(tmu)
	tenantsClosed bool
}

// job is one unit of query fan-out: decode the overlapping blocks of
// one partition of history st into the query's accumulator.
type job[T comparable] struct {
	st *Store[T]
	q  *rangeQuery[T]
	p  *partition
}

// rangeQuery is the shared state of one Query execution.
type rangeQuery[T comparable] struct {
	from, to int64
	mu       sync.Mutex
	dst      *freq.Sketch[T]
	err      error
	wg       sync.WaitGroup
}

func (q *rangeQuery[T]) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
}

func (q *rangeQuery[T]) failed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err != nil
}

// scratch is one decoder's reusable state: the read and decompression
// buffers.
type scratch struct {
	enc []byte
	raw []byte
}

// Open opens (creating if needed) the store rooted at dir. Recovery is
// scan-based: the manifest fixes which partition files are live, each
// file's block index is rebuilt by walking its self-delimiting blocks,
// and a torn tail from a crashed append is truncated away. Files the
// manifest does not reference — leftovers of an interrupted roll,
// compaction, or retention pass — are removed; with no manifest at all,
// every scannable partition file in dir is adopted. Recovery skips
// directories, so the tenants/ subtree is neither adopted nor removed;
// tenant histories open with the same options on their first touch.
func Open[T comparable](dir string, opts ...Option) (*Store[T], error) {
	opt := options{span: time.Minute, codec: NewLZ()}
	for _, o := range opts {
		if err := o(&opt); err != nil {
			return nil, err
		}
	}
	st, err := open[T](dir, opt)
	if err != nil {
		return nil, err
	}
	if workers := min(4, runtime.GOMAXPROCS(0)); workers > 1 {
		st.jobs = make(chan job[T], workers)
		for range workers {
			st.workerWG.Add(1)
			go st.worker()
		}
	}
	return st, nil
}

// open opens the history in dir with resolved options: the default
// history at Open, a tenant's history on its first touch.
func open[T comparable](dir string, opt options) (*Store[T], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, haveManifest, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	if haveManifest {
		live := make(map[string]bool, len(m.Files))
		for _, f := range m.Files {
			names = append(names, f.Name)
			live[f.Name] = true
		}
		janitor(dir, live)
	} else {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if _, _, ok := parsePartFileName(e.Name()); ok {
				names = append(names, e.Name())
			}
		}
	}
	st := &Store[T]{
		dir:      dir,
		opt:      opt,
		decoders: map[uint8]Codec{codecIDNone: None{}, codecIDLZ: &LZ{}},
		tenants:  map[string]*tenantEntry[T]{},
		maxOpen:  defaultMaxOpen,
	}
	st.decoders[opt.codec.ID()] = opt.codec
	type keyed struct {
		p    *partition
		seq  uint64
		from int64
	}
	var ks []keyed
	for _, name := range names {
		partFrom, seq, ok := parsePartFileName(name)
		if !ok {
			continue
		}
		if seq >= st.nextSeq {
			st.nextSeq = seq + 1
		}
		p, err := openPartition(dir, name)
		if err != nil {
			// A manifest entry whose file never landed (crash between
			// manifest commit and file creation) or whose header is
			// unreadable: skip it — recovery keeps everything scannable.
			continue
		}
		ks = append(ks, keyed{p, seq, partFrom})
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].from != ks[j].from {
			return ks[i].from < ks[j].from
		}
		return ks[i].seq < ks[j].seq
	})
	for _, k := range ks {
		st.parts = append(st.parts, k.p)
	}
	if len(st.parts) > 0 {
		st.cur = st.parts[len(st.parts)-1]
	}
	if err := writeManifest(dir, st.manifestLocked(), opt.sync); err != nil {
		st.closeFilesLocked()
		return nil, err
	}
	return st, nil
}

// SetSerDe installs the item codec used when the store holds sketches
// over a type without a built-in codec, for the default history and
// every tenant history, and returns st for chaining. Install it before
// the first append or query.
func (st *Store[T]) SetSerDe(sd freq.SerDe[T]) *Store[T] {
	st.mu.Lock()
	st.serde = sd
	st.mu.Unlock()
	return st
}

// Dir returns the store's root directory.
func (st *Store[T]) Dir() string { return st.dir }

// manifestLocked builds the membership manifest from the live partition
// list plus any names committed ahead of their files (the roll
// protocol).
func (st *Store[T]) manifestLocked(extra ...string) manifest {
	m := manifest{Version: manifestVersion, Codec: st.opt.codec.Name()}
	for _, p := range st.parts {
		m.Files = append(m.Files, manifestFile{
			Name: p.name, From: p.from, To: p.to,
			Blocks: len(p.blocks), Bytes: p.bytes,
		})
	}
	for _, name := range extra {
		m.Files = append(m.Files, manifestFile{Name: name})
	}
	return m
}

// AppendSlot persists one retired window interval covering [start, end)
// — the freq.RotationSink contract, called by ConcurrentWindowed at
// each rotation with the window's lock held. The slot is encoded
// through the alloc-free AppendBinary path into the partition owning
// start (rolling to a new partition file at each boundary), compressed
// by the store codec when that wins, and CRC-stamped. With retention
// configured, expired partitions are dropped afterwards.
func (st *Store[T]) AppendSlot(v *freq.View[T], start, end time.Time) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	raw, err := v.AppendBinary(st.encBuf[:0])
	st.encBuf = raw
	if err != nil {
		return err
	}
	from, to := start.UnixNano(), end.UnixNano()
	if to <= from {
		to = from + 1
	}
	if err := st.appendEncodedLocked(raw, from, to, uint32(v.MaxCounters())); err != nil {
		return err
	}
	if st.opt.retainAge > 0 || st.opt.retainBytes > 0 {
		return st.enforceRetentionLocked(time.Now())
	}
	return nil
}

// appendEncodedLocked writes one already-encoded sketch as a block in
// the partition owning from, rolling partitions as needed.
func (st *Store[T]) appendEncodedLocked(raw []byte, from, to int64, k uint32) error {
	bucket := floorDiv(from, int64(st.opt.span)) * int64(st.opt.span)
	if st.cur == nil || st.cur.partFrom != bucket {
		if err := st.rollLocked(bucket); err != nil {
			return err
		}
	}
	b, payload := st.encodeBlockLocked(raw, from, to, k)
	return st.cur.appendBlock(b, payload, st.opt.sync)
}

// encodeBlockLocked decides the block format, for appends and
// compaction alike: raw (one encoded sketch covering [from, to), budget
// k) is compressed by the store codec only when that shrinks it, and
// the CRC covers the stored payload. The payload aliases raw or the
// append-side compression buffer.
func (st *Store[T]) encodeBlockLocked(raw []byte, from, to int64, k uint32) (blockRef, []byte) {
	payload, codecID := raw, codecIDNone
	if st.opt.codec.ID() != codecIDNone {
		st.cmpBuf = st.opt.codec.Encode(st.cmpBuf[:0], raw)
		if len(st.cmpBuf) < len(raw) {
			payload, codecID = st.cmpBuf, st.opt.codec.ID()
		}
	}
	return blockRef{
		from: from, to: to, k: k,
		rawLen: uint32(len(raw)),
		encLen: uint32(len(payload)),
		crc:    crc32.Checksum(payload, castagnoli),
		codec:  codecID,
	}, payload
}

// rollLocked closes out the current partition and starts a new one for
// bucket. The new file's name is committed to the manifest before the
// file is created, so the janitor can never mistake it for a leftover.
func (st *Store[T]) rollLocked(bucket int64) error {
	seq := st.nextSeq
	name := partFileName(bucket, seq)
	if err := writeManifest(st.dir, st.manifestLocked(name), st.opt.sync); err != nil {
		return err
	}
	st.nextSeq = seq + 1
	f, err := os.OpenFile(filepath.Join(st.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	st.hdrBuf = writePartHeader(st.hdrBuf[:0], st.opt.codec.ID(), 0, 0, bucket, int64(st.opt.span))
	if _, err := f.WriteAt(st.hdrBuf, 0); err != nil {
		f.Close()
		return err
	}
	if st.opt.sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	p := &partition{
		name:     name,
		f:        f,
		partFrom: bucket,
		span:     int64(st.opt.span),
		bytes:    partHeaderLen,
	}
	st.parts = append(st.parts, p)
	st.cur = p
	return nil
}

// Query merges every persisted slot overlapping the half-open range
// [from, to) into one summary and returns it as a read view — the
// historical generalization of ConcurrentWindowed.Last, serving the same
// freq.Queryable surface (the Query builder, AppendBinary). Partitions
// decode in parallel on the store's worker pool; each block folds into
// the accumulator straight from its decoded bytes (Sketch.MergeBinary),
// validated as UnmarshalBinary would validate it but with no scratch
// sketch. A corrupt block fails the query with an error wrapping
// freq.ErrCorrupt. The view's error band is the sum of the covered
// slots' bands (Theorem 5): zero while every slot stayed within its
// per-interval budget and the merged budget admits every counter.
func (st *Store[T]) Query(from, to time.Time) (*freq.View[T], error) {
	sk, err := st.QueryInto(nil, from, to)
	if err != nil {
		return nil, err
	}
	return freq.NewView(sk), nil
}

// QueryInto is Query recycling a caller-held accumulator: dst is
// cleared in place and reused when its budget suffices (pass the sketch
// returned by the previous call), or replaced by a larger one. The
// returned sketch is always valid to pass back in — a steady-state poll
// loop over a stable range allocates nothing.
func (st *Store[T]) QueryInto(dst *freq.Sketch[T], from, to time.Time) (*freq.Sketch[T], error) {
	f, t := nanoClamped(from), nanoClamped(to)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.closed {
		return dst, ErrClosed
	}
	need, nparts := 0, 0
	for _, p := range st.parts {
		if !p.overlaps(f, t) {
			continue
		}
		nparts++
		for _, b := range p.blocks {
			if b.from < t && b.to > f {
				need += int(b.k)
			}
		}
	}
	dst, err := st.accumulator(dst, max(min(need, maxQueryBudget), 1))
	if err != nil || nparts == 0 {
		return dst, err
	}
	q, _ := st.qPool.Get().(*rangeQuery[T])
	if q == nil {
		q = new(rangeQuery[T])
	}
	q.from, q.to, q.dst, q.err = f, t, dst, nil
	if st.jobs != nil && nparts > 1 {
		for _, p := range st.parts {
			if p.overlaps(f, t) {
				q.wg.Add(1)
				st.jobs <- job[T]{st: st, q: q, p: p}
			}
		}
		q.wg.Wait()
	} else {
		sc := st.getScratch()
		for _, p := range st.parts {
			if p.overlaps(f, t) {
				st.processPartition(q, p, sc)
			}
		}
		st.scratchPool.Put(sc)
	}
	err = q.err
	q.dst, q.err = nil, nil
	st.qPool.Put(q)
	return dst, err
}

// worker drains partition-decode jobs, the default history's and its
// tenant histories', for the life of the store.
func (st *Store[T]) worker() {
	defer st.workerWG.Done()
	sc := &scratch{}
	for j := range st.jobs {
		j.st.processPartition(j.q, j.p, sc)
		j.q.wg.Done()
	}
}

// accumulator returns dst cleared for reuse when its budget covers
// need, else a fresh sketch of that budget carrying the store's SerDe.
func (st *Store[T]) accumulator(dst *freq.Sketch[T], need int) (*freq.Sketch[T], error) {
	if dst != nil && dst.MaxCounters() >= need {
		dst.Clear()
		return dst, nil
	}
	sk, err := freq.New[T](need)
	if err != nil {
		return nil, err
	}
	if st.serde != nil {
		sk.SetSerDe(st.serde)
	}
	return sk, nil
}

func (st *Store[T]) getScratch() *scratch {
	if sc, _ := st.scratchPool.Get().(*scratch); sc != nil {
		return sc
	}
	return &scratch{}
}

// processPartition decodes every block of p overlapping q's range and
// folds it into the accumulator straight from its bytes (MergeBinary),
// under q.mu; reading and decompressing stay outside it. The first
// error poisons the query; later blocks are skipped.
func (st *Store[T]) processPartition(q *rangeQuery[T], p *partition, sc *scratch) {
	for _, b := range p.blocks {
		if !(b.from < q.to && b.to > q.from) {
			continue
		}
		if q.failed() {
			return
		}
		var err error
		sc.enc, err = p.readPayload(b, sc.enc)
		if err != nil {
			q.fail(err)
			return
		}
		raw := sc.enc
		if b.codec != codecIDNone {
			dec, ok := st.decoders[b.codec]
			if !ok {
				q.fail(fmt.Errorf("store: %s: block encoded with unknown codec %d", p.name, b.codec))
				return
			}
			// Room for the whole block, so that the decoder copies words
			// up to its last few tokens, but no more than an LZ payload of
			// this size can decode to, so that a corrupt header cannot
			// force a large allocation.
			sc.raw = slices.Grow(sc.raw[:0], min(int(b.rawLen), lzMaxDecodedLen(len(sc.enc))))
			sc.raw, err = dec.Decode(sc.raw, sc.enc)
			if err != nil {
				q.fail(fmt.Errorf("store: %s: %w", p.name, err))
				return
			}
			raw = sc.raw
		}
		if len(raw) != int(b.rawLen) {
			q.fail(fmt.Errorf("store: %s: block decodes to %d bytes, header says %d", p.name, len(raw), b.rawLen))
			return
		}
		q.mu.Lock()
		err = q.dst.MergeBinary(raw)
		q.mu.Unlock()
		if err != nil {
			q.fail(fmt.Errorf("store: %s: %w", p.name, err))
			return
		}
	}
}

// Compact folds partitions whose entire coverage predates upTo into
// coarser ones of width span: each target bucket's blocks are merged —
// the same lossless fold a range query performs — and rewritten as one
// block in one new partition file, after which the inputs are deleted.
// Whole-bucket queries answer identically before and after (the merged
// budget admits every input counter); queries slicing into a compacted
// bucket resolve at the bucket's granularity. It returns the number of
// buckets folded. The partition currently receiving appends is never
// compacted.
func (st *Store[T]) Compact(upTo time.Time, span time.Duration) (int, error) {
	if span <= 0 {
		return 0, fmt.Errorf("store: compaction span must be positive, got %s", span)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, ErrClosed
	}
	cut := nanoClamped(upTo)
	buckets := map[int64][]*partition{}
	for _, p := range st.parts {
		if p == st.cur || len(p.blocks) == 0 || p.to > cut {
			continue
		}
		key := floorDiv(p.partFrom, int64(span))
		buckets[key] = append(buckets[key], p)
	}
	keys := make([]int64, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	folded := 0
	for _, key := range keys {
		group := buckets[key]
		nblocks := 0
		for _, p := range group {
			nblocks += len(p.blocks)
		}
		if nblocks <= 1 {
			continue // already as compact as it gets
		}
		if err := st.compactGroupLocked(key*int64(span), span, group); err != nil {
			return folded, err
		}
		folded++
	}
	return folded, nil
}

// compactGroupLocked merges one bucket's partitions into a single new
// partition and commits the swap (output file → manifest → input
// deletes; every crash window leaves a readable store).
func (st *Store[T]) compactGroupLocked(bucket int64, span time.Duration, group []*partition) error {
	need, from, to := 0, int64(0), int64(0)
	first := true
	for _, p := range group {
		for _, b := range p.blocks {
			need += int(b.k)
			if first {
				from, to = b.from, b.to
				first = false
			} else {
				from = min(from, b.from)
				to = max(to, b.to)
			}
		}
	}
	need = max(min(need, maxQueryBudget), 1)
	merged, err := st.accumulator(nil, need)
	if err != nil {
		return err
	}
	q := &rangeQuery[T]{from: from, to: to, dst: merged}
	sc := st.getScratch()
	for _, p := range group {
		st.processPartition(q, p, sc)
	}
	st.scratchPool.Put(sc)
	if q.err != nil {
		return q.err
	}

	raw, err := freq.NewView(merged).AppendBinary(st.encBuf[:0])
	st.encBuf = raw
	if err != nil {
		return err
	}
	b, payload := st.encodeBlockLocked(raw, from, to, uint32(need))

	seq := st.nextSeq
	st.nextSeq = seq + 1
	name := partFileName(bucket, seq)
	tmp := filepath.Join(st.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	st.hdrBuf = writePartHeader(st.hdrBuf[:0], st.opt.codec.ID(), uint32(need), 0, bucket, int64(span))
	if _, err := f.WriteAt(st.hdrBuf, 0); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	np := &partition{name: name, f: f, partFrom: bucket, span: int64(span), bytes: partHeaderLen}
	if err := np.appendBlock(b, payload, true); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, name)); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}

	// Swap inputs for the output in the live list, commit, then delete.
	inGroup := map[*partition]bool{}
	for _, p := range group {
		inGroup[p] = true
	}
	var parts []*partition
	inserted := false
	for _, p := range st.parts {
		if inGroup[p] {
			if !inserted {
				parts = append(parts, np)
				inserted = true
			}
			continue
		}
		parts = append(parts, p)
	}
	if !inserted {
		parts = append(parts, np)
	}
	old := st.parts
	st.parts = parts
	if err := writeManifest(st.dir, st.manifestLocked(), st.opt.sync); err != nil {
		st.parts = old // leave the swap uncommitted; np is janitored later
		np.f.Close()
		return err
	}
	for _, p := range group {
		p.f.Close()
		os.Remove(filepath.Join(st.dir, p.name))
	}
	return nil
}

// EnforceRetention applies the configured age and byte-budget policies
// now to the default history and then to each tenant history under
// tenants/, returning after the expired partitions are deleted. An
// append runs them on the history it lands in; this reaches the
// histories that stopped appending. Tenant histories are visited one at
// a time under the tenant lock, opening closed ones through the LRU, and
// never under the default history's lock, so the rotation sink never
// waits on the walk.
func (st *Store[T]) EnforceRetention() error {
	st.mu.Lock()
	err := ErrClosed
	if !st.closed {
		err = st.enforceRetentionLocked(time.Now())
	}
	st.mu.Unlock()
	if err != nil || (st.opt.retainAge <= 0 && st.opt.retainBytes <= 0) {
		return err
	}
	entries, err := os.ReadDir(filepath.Join(st.dir, tenantsDir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var errs []error
	for _, e := range entries {
		if e.IsDir() {
			errs = append(errs, st.enforceTenantRetention(e.Name()))
		}
	}
	return errors.Join(errs...)
}

// enforceTenantRetention applies the retention policies to the tenant
// history in tenants/<name>.
func (st *Store[T]) enforceTenantRetention(name string) error {
	st.tmu.Lock()
	defer st.tmu.Unlock()
	ts, err := st.tenantLocked(name, false)
	if ts == nil {
		return err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.enforceRetentionLocked(time.Now())
}

// enforceRetentionLocked drops partitions per the retention options:
// first everything entirely older than the age horizon, then oldest
// first while the byte budget is exceeded. The byte budget never drops
// the append partition; when the age policy drops it, the next append
// rolls a new one.
func (st *Store[T]) enforceRetentionLocked(now time.Time) error {
	if st.opt.retainAge <= 0 && st.opt.retainBytes <= 0 {
		return nil
	}
	drop := map[*partition]bool{}
	if st.opt.retainAge > 0 {
		cut := now.Add(-st.opt.retainAge).UnixNano()
		for _, p := range st.parts {
			if len(p.blocks) > 0 && p.to <= cut {
				drop[p] = true
			}
		}
	}
	if st.opt.retainBytes > 0 {
		var total int64
		var live []*partition
		for _, p := range st.parts {
			if !drop[p] {
				total += p.bytes
				if p != st.cur {
					live = append(live, p)
				}
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].to < live[j].to })
		for _, p := range live {
			if total <= st.opt.retainBytes {
				break
			}
			drop[p] = true
			total -= p.bytes
		}
	}
	if len(drop) == 0 {
		return nil
	}
	var parts []*partition
	for _, p := range st.parts {
		if !drop[p] {
			parts = append(parts, p)
		}
	}
	old := st.parts
	st.parts = parts
	if err := writeManifest(st.dir, st.manifestLocked(), st.opt.sync); err != nil {
		st.parts = old
		return err
	}
	if drop[st.cur] {
		st.cur = nil
	}
	for p := range drop {
		p.f.Close()
		os.Remove(filepath.Join(st.dir, p.name))
	}
	return nil
}

// Stats summarizes the store's on-disk state.
type Stats struct {
	// Partitions and Blocks count the live partition files and the
	// sketch blocks they hold.
	Partitions, Blocks int
	// Bytes is the total valid on-disk size.
	Bytes int64
	// From and To bound the covered history, half-open [From, To);
	// both are zero while the store holds no blocks.
	From, To time.Time
}

// Stats returns the default history's current coverage and footprint.
func (st *Store[T]) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var s Stats
	first := true
	for _, p := range st.parts {
		s.Partitions++
		s.Blocks += len(p.blocks)
		s.Bytes += p.bytes
		if len(p.blocks) == 0 {
			continue
		}
		if first {
			s.From, s.To = time.Unix(0, p.from), time.Unix(0, p.to)
			first = false
		} else {
			if p.from < s.From.UnixNano() {
				s.From = time.Unix(0, p.from)
			}
			if p.to > s.To.UnixNano() {
				s.To = time.Unix(0, p.to)
			}
		}
	}
	return s
}

// PartitionCount returns the default history's live partition file
// count — the cheap subset of Stats the server's STATS reply reports on
// every call.
func (st *Store[T]) PartitionCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.parts)
}

// Close closes the open tenant histories, then the default history, and
// only then stops the worker pool they share. A closed store rejects
// further operations; Close is idempotent.
func (st *Store[T]) Close() error {
	err := st.closeTenants()
	closed, e := st.closeHistory()
	if err == nil {
		err = e
	}
	if closed && st.jobs != nil {
		close(st.jobs)
		st.workerWG.Wait()
	}
	return err
}

// closeHistory syncs and closes every partition file and commits the
// final manifest, leaving the worker pool to Close; it reports whether
// this call closed the history. Once it returns no query of this
// history sends another job.
func (st *Store[T]) closeHistory() (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false, nil
	}
	st.closed = true
	err := writeManifest(st.dir, st.manifestLocked(), true)
	if e := st.closeFilesLocked(); err == nil {
		err = e
	}
	return true, err
}

// closeFilesLocked syncs and closes every partition file handle.
func (st *Store[T]) closeFilesLocked() error {
	var err error
	for _, p := range st.parts {
		if e := p.f.Sync(); e != nil && err == nil {
			err = e
		}
		if e := p.f.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// minNanoTime/maxNanoTime bound the instants representable as int64
// unix nanoseconds (roughly years 1678–2262).
var (
	minNanoTime = time.Unix(0, math.MinInt64)
	maxNanoTime = time.Unix(0, math.MaxInt64)
)

// nanoClamped converts a query bound to unix nanoseconds, saturating
// for instants outside the representable range — UnixNano wraps there,
// which would silently turn a far-future "to" into an empty range.
func nanoClamped(t time.Time) int64 {
	if t.Before(minNanoTime) {
		return math.MinInt64
	}
	if t.After(maxNanoTime) {
		return math.MaxInt64
	}
	return t.UnixNano()
}

// floorDiv is integer division rounding toward negative infinity — the
// bucket rule must be monotone across the epoch.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
