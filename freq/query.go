package freq

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"reflect"
	"slices"
	"strings"
)

// Queryable is the uniform read-side interface of the package: one query
// surface that answers identically whether the summary lives in this
// process (Sketch, Concurrent, Signed, a Concurrent View) or across the
// wire (server.Client, server.Cluster). The paper's mergeability result
// (§3) is what makes the abstraction sound — every implementation is, or
// merges down to, a single weight-bounded Misra–Gries summary, so "which
// items are heavy?" has one logical answer no matter how many writers
// produced it.
//
// All returns an iterator over every tracked row in unspecified order
// and without materializing the result; Query composes filtering,
// ordering, and pagination on top of it.
type Queryable[T comparable] interface {
	// Estimate returns the hybrid point estimate f̂(item).
	Estimate(item T) int64
	// LowerBound returns a value certainly <= item's true frequency.
	LowerBound(item T) int64
	// UpperBound returns a value certainly >= item's true frequency.
	UpperBound(item T) int64
	// MaximumError returns the additive error band of any estimate.
	MaximumError() int64
	// StreamWeight returns the total weight the summary accounts for.
	StreamWeight() int64
	// All iterates every tracked row as (item, row) pairs, in unspecified
	// order, without materializing the result set.
	All() iter.Seq2[T, Row[T]]
}

// Compile-time proof that every front-end serves the one query surface.
// server.Client and server.Cluster assert the same in freq/server.
var (
	_ Queryable[int64]  = (*Sketch[int64])(nil)
	_ Queryable[string] = (*Sketch[string])(nil)
	_ Queryable[uint64] = (*Concurrent[uint64])(nil)
	_ Queryable[string] = (*Concurrent[string])(nil)
	_ Queryable[int64]  = (*Signed[int64])(nil)
	_ Queryable[int64]  = (*View[int64])(nil)
	_ Queryable[int64]  = (*ConcurrentWindowed[int64])(nil)
	_ Queryable[string] = (*ConcurrentWindowed[string])(nil)
)

// Order selects the row ordering a Query applies before Limit/Offset.
// Every ordering breaks ties by the canonical item order (see OrderItem),
// so a query over the same summary state is fully deterministic — the
// property that lets the same Query return identical rows from a local
// Sketch, a sharded Concurrent, and a distributed Cluster.
type Order int

const (
	// OrderEstimateDesc sorts by descending estimate, ties by item — the
	// classic heavy-hitters listing and the default.
	OrderEstimateDesc Order = iota
	// OrderEstimateAsc sorts by ascending estimate, ties by item.
	OrderEstimateAsc
	// OrderItem sorts by the canonical item order: numeric for int64 and
	// uint64 item types, lexicographic on the fmt representation
	// otherwise (deterministic for every comparable type, numeric only
	// for the 8-byte integer kinds).
	OrderItem
	// OrderNone keeps the source's iteration order and streams rows
	// through filters and pagination without materializing the result
	// set. The order is unspecified (and for map-backed summaries,
	// randomized) — use it for full scans and aggregations where
	// ordering is irrelevant.
	OrderNone
)

func (o Order) String() string {
	switch o {
	case OrderEstimateDesc:
		return "OrderEstimateDesc"
	case OrderEstimateAsc:
		return "OrderEstimateAsc"
	case OrderItem:
		return "OrderItem"
	case OrderNone:
		return "OrderNone"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// itemCompare is the canonical total order on items used for
// deterministic tie-breaking: numeric for the 8-byte integer kinds the
// fast path serves (bit-cast, free), lexicographic for string kinds,
// and lexicographic on the fmt representation for every other
// comparable type (deterministic, not necessarily natural).
func itemCompare[T comparable](a, b T) int {
	switch av := any(a).(type) {
	case int64:
		return cmp.Compare(av, any(b).(int64))
	case uint64:
		return cmp.Compare(av, any(b).(uint64))
	case string:
		return strings.Compare(av, any(b).(string))
	}
	var zero T
	switch reflect.TypeOf(zero).Kind() {
	case reflect.Int64:
		return cmp.Compare(asInt64(a), asInt64(b))
	case reflect.Uint64:
		return cmp.Compare(uint64(asInt64(a)), uint64(asInt64(b)))
	case reflect.String:
		return strings.Compare(reflect.ValueOf(a).String(), reflect.ValueOf(b).String())
	}
	return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
}

// Query is a composable read over any Queryable: threshold and predicate
// filters, error-band semantics, ordering, and pagination, executed
// lazily when the result is iterated. Build one with From (or the
// Query() method on each front-end), chain the configuration calls —
// each mutates and returns the same builder — and consume the result as
// an iterator (All, Rows) or a slice (Collect):
//
//	for item, row := range freq.From[int64](sk).Where(threshold).Limit(10).All() {
//		fmt.Println(item, row.Estimate)
//	}
//
// Results are snapshots of the source at iteration time: iterating twice
// re-reads the source. A Query is not safe for concurrent use; queries
// are cheap to build, so make one per need.
type Query[T comparable] struct {
	src          rowSource[T]
	threshold    int64
	hasThreshold bool
	et           ErrorType
	preds        []func(Row[T]) bool
	order        Order
	cmpFn        func(a, b Row[T]) int
	limit        int
	offset       int
}

// From starts a query over src with the defaults: no threshold,
// NoFalseNegatives semantics, OrderEstimateDesc, no limit or offset.
func From[T comparable](src Queryable[T]) *Query[T] { return fromRows[T](src) }

// rowSource is the one method a Query reads: every Queryable, and the
// rowList a window or a Concurrent ranks its candidate rows from.
type rowSource[T comparable] interface {
	All() iter.Seq2[T, Row[T]]
}

// fromRows is From over any row source.
func fromRows[T comparable](src rowSource[T]) *Query[T] {
	return &Query[T]{src: src, et: NoFalseNegatives, order: OrderEstimateDesc, limit: -1}
}

// topLister is a row source that can rank its first rows by descending
// estimate from its largest counters instead of scanning every row: a
// Sketch, a View, and a Concurrent, which lists per shard.
type topLister[T comparable] interface {
	// topRows returns rows among which are the n that sort first by
	// descending estimate, or false when it cannot tell which those are
	// without a scan.
	topRows(n int) ([]Row[T], bool)
}

// listTop is the certificate every topLister shares. each calls list
// on one summary, or on several that hold disjoint items and whose
// merge decrements nothing (a Concurrent's shards), so that an item's
// row is its summary's counter c plus the summed offsets O, (c+O, c,
// c+O), and the top n lies in the union of the summaries' largest
// counters. Each summary lists n+1 of them together with its offset, so
// that what it leaves out is bounded by its (n+1)-th counter and a
// single summary, or one holding most of the top n, can still tell. An
// unlisted item holds at most cut, the largest of the smallest listed
// counters of the summaries that held more than they listed, so when at
// least n listed counters exceed cut, every row at or below it sorts
// after them and is dropped; when no summary was cut, every row is
// listed. Otherwise (counters tie at a cut, as on flat unit-weight
// traffic) it reports false.
func listTop[T comparable](n int, each func(list func(*Sketch[T]))) ([]Row[T], bool) {
	m := n + min(1, math.MaxInt-n)
	var pairs []pair[T]
	var offset int64
	cut := int64(-1)
	each(func(s *Sketch[T]) {
		base := len(pairs)
		pairs = s.appendLargest(slices.Grow(pairs, min(m, s.NumActive())), m)
		offset += s.MaximumError()
		if s.NumActive() > m {
			least := int64(math.MaxInt64)
			for _, p := range pairs[base:] {
				least = min(least, p.weight)
			}
			cut = max(cut, least)
		}
	})
	above := 0
	for _, p := range pairs {
		if p.weight > cut {
			above++
		}
	}
	if cut >= 0 && above < n {
		return nil, false
	}
	rows := make([]Row[T], 0, above)
	for _, p := range pairs {
		if p.weight > cut {
			rows = append(rows, Row[T]{Item: p.item, Estimate: p.weight + offset, LowerBound: p.weight, UpperBound: p.weight + offset})
		}
	}
	return rows, true
}

// rowList is a slice of rows served as a row source.
type rowList[T comparable] []Row[T]

func (rs rowList[T]) All() iter.Seq2[T, Row[T]] {
	return func(yield func(T, Row[T]) bool) {
		for _, r := range rs {
			if !yield(r.Item, r) {
				return
			}
		}
	}
}

// Where keeps only rows clearing threshold under the query's ErrorType
// semantics (φ·N for (φ, ε)-heavy hitters): under NoFalseNegatives rows
// with UpperBound > threshold, under NoFalsePositives rows with
// LowerBound > threshold. Negative thresholds clamp to 0.
func (q *Query[T]) Where(threshold int64) *Query[T] {
	if threshold < 0 {
		threshold = 0
	}
	q.threshold = threshold
	q.hasThreshold = true
	return q
}

// WhereFunc keeps only rows for which pred returns true; multiple
// predicates conjoin. Predicates see the row after threshold filtering.
func (q *Query[T]) WhereFunc(pred func(Row[T]) bool) *Query[T] {
	q.preds = append(q.preds, pred)
	return q
}

// WithErrorType selects which side of the error band the threshold
// filter may err on (default NoFalseNegatives).
func (q *Query[T]) WithErrorType(et ErrorType) *Query[T] {
	q.et = et
	return q
}

// OrderBy selects the result ordering (default OrderEstimateDesc).
// OrderNone streams rows without materializing them.
func (q *Query[T]) OrderBy(o Order) *Query[T] {
	q.order = o
	q.cmpFn = nil
	return q
}

// OrderByFunc sorts with a custom comparison (negative when a sorts
// before b). Ties under cmp are still broken by the canonical item
// order, so custom orderings stay deterministic.
func (q *Query[T]) OrderByFunc(cmp func(a, b Row[T]) int) *Query[T] {
	q.cmpFn = cmp
	return q
}

// Limit caps the result at the first n rows after ordering and offset; a
// negative n (the default) means no cap.
func (q *Query[T]) Limit(n int) *Query[T] {
	q.limit = n
	return q
}

// Offset skips the first n rows after ordering — pagination's other
// half. Non-positive n means none.
func (q *Query[T]) Offset(n int) *Query[T] {
	if n < 0 {
		n = 0
	}
	q.offset = n
	return q
}

// match applies the threshold and predicate filters to one row.
func (q *Query[T]) match(r Row[T]) bool {
	if q.hasThreshold {
		if q.et == NoFalsePositives {
			if r.LowerBound <= q.threshold {
				return false
			}
		} else if r.UpperBound <= q.threshold {
			return false
		}
	}
	for _, p := range q.preds {
		if !p(r) {
			return false
		}
	}
	return true
}

// compare is the effective row comparison: the configured order (or
// custom function) with the canonical item order as the final tie-break.
func (q *Query[T]) compare(a, b Row[T]) int {
	if q.cmpFn != nil {
		if c := q.cmpFn(a, b); c != 0 {
			return c
		}
		return itemCompare(a.Item, b.Item)
	}
	switch q.order {
	case OrderEstimateAsc:
		if c := cmp.Compare(a.Estimate, b.Estimate); c != 0 {
			return c
		}
	case OrderItem:
		// Fall through to the item tie-break, which is the whole order.
	default: // OrderEstimateDesc
		if c := cmp.Compare(b.Estimate, a.Estimate); c != 0 {
			return c
		}
	}
	return itemCompare(a.Item, b.Item)
}

// All returns the query result as an (item, row) iterator. With
// OrderNone and no custom comparison, rows stream straight from the
// source through the filters — no intermediate slice. An ordered query
// with a Limit selects: one pass over the source keeps only the
// Offset+Limit rows that sort first, and only those are sorted and
// paged. Over a Sketch, a View or a Concurrent, such a query in the
// default order with no filter selects from the largest counters (each
// shard's, for a Concurrent) instead of scanning every row, whenever
// those provably hold its first rows; the rows are the same. An ordered
// query without a Limit
// materializes the filtered rows once and sorts them all. Evaluation
// happens when the iterator runs, so the result reflects the source at
// that moment.
func (q *Query[T]) All() iter.Seq2[T, Row[T]] {
	if q.order == OrderNone && q.cmpFn == nil {
		return q.stream()
	}
	return func(yield func(T, Row[T]) bool) {
		// A negative keep keeps every matching row: the query has no
		// Limit, or Offset+Limit overflowed int and wrapped negative.
		keep := q.offset + q.limit
		if q.limit < 0 {
			keep = -1
		}
		var src rowSource[T] = q.src
		if l, ok := src.(topLister[T]); ok && keep > 0 && q.order == OrderEstimateDesc &&
			q.cmpFn == nil && !q.hasThreshold && len(q.preds) == 0 {
			if rows, ok := l.topRows(keep); ok {
				src = rowList[T](rows)
			}
		}
		rows := q.firstRows(src, keep)
		slices.SortFunc(rows, q.compare)
		if q.offset > 0 {
			if q.offset >= len(rows) {
				return
			}
			rows = rows[q.offset:]
		}
		if q.limit >= 0 && len(rows) > q.limit {
			rows = rows[:q.limit]
		}
		for _, r := range rows {
			if !yield(r.Item, r) {
				return
			}
		}
	}
}

// firstRows returns, unsorted, the n matching rows of src that sort
// first under compare, or every matching row when n < 0, in one pass.
// Once n rows are held they form a heap whose root is the held row that
// sorts last, and a later row replaces the root only if it sorts before
// it. The slice grows by append as rows arrive and is never sized from
// n: n may be a count a client sent (TOPK 9223372036854775807).
func (q *Query[T]) firstRows(src rowSource[T], n int) []Row[T] {
	var rows []Row[T]
	for _, r := range src.All() {
		switch {
		case !q.match(r):
		case n < 0 || len(rows) < n:
			rows = append(rows, r)
			if len(rows) == n {
				for i := n/2 - 1; i >= 0; i-- {
					q.siftDown(rows, i)
				}
			}
		case n > 0 && q.compare(r, rows[0]) < 0:
			rows[0] = r
			q.siftDown(rows, 0)
		}
	}
	return rows
}

// siftDown moves h[i] down until no child sorts after it, restoring the
// heap below i.
func (q *Query[T]) siftDown(h []Row[T], i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && q.compare(h[c+1], h[c]) > 0 {
			c++
		}
		if q.compare(h[i], h[c]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// stream is the non-materializing path: filters, offset, and limit are
// applied as rows flow past.
func (q *Query[T]) stream() iter.Seq2[T, Row[T]] {
	return func(yield func(T, Row[T]) bool) {
		skip, emitted := q.offset, 0
		for item, r := range q.src.All() {
			if !q.match(r) {
				continue
			}
			if skip > 0 {
				skip--
				continue
			}
			if q.limit >= 0 && emitted >= q.limit {
				return
			}
			if !yield(item, r) {
				return
			}
			emitted++
		}
	}
}

// Rows returns the query result as a row-only iterator.
func (q *Query[T]) Rows() iter.Seq[Row[T]] {
	return func(yield func(Row[T]) bool) {
		for _, r := range q.All() {
			if !yield(r) {
				return
			}
		}
	}
}

// Collect materializes the query result as a slice.
func (q *Query[T]) Collect() []Row[T] {
	var rows []Row[T]
	for _, r := range q.All() {
		rows = append(rows, r)
	}
	return rows
}

// Count runs the query and returns the number of matching rows (Limit
// and Offset apply).
func (q *Query[T]) Count() int {
	n := 0
	for range q.All() {
		n++
	}
	return n
}
