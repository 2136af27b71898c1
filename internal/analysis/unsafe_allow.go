package analysis

// UnsafeAllowlist enumerates every file permitted to import "unsafe",
// keyed by "<import path>/<file name>" with the reviewed justification
// as the value. The unsafeallow pass rejects any other unsafe import,
// so adding an unsafe site anywhere in the tree forces a diff to this
// file — a reviewed, documented decision instead of a silent creep.
//
// Keep the list tight: each entry should name a vetted, benchmarked
// bit-reinterpretation with no pointer arithmetic and no lifetime
// extension.
var UnsafeAllowlist = map[string]string{
	// The facade's fast path: T <-> int64 bit casts for 8-byte integer
	// kinds, selected only when size and kind match exactly.
	"repro/freq/freq.go": "core bit-cast: T<->int64 reinterpretation on the 8-byte integer fast path",

	// The writer's pair-buffer handoff: []pair[T] <-> []hashmap.Pair for
	// the same 8-byte layouts, avoiding a re-marshal per flush and
	// letting the window's top-k kernel append into a reused buffer.
	"repro/freq/writer.go": "core bit-cast: pair slice reinterpretation on the buffered-writer flush and window top-k paths",

	// The binary wire protocol's zero-copy PAIRS ingest: a frame
	// payload allocated as []freq.Pair[int64] is filled through a byte
	// view, so little-endian hosts decode without touching the data.
	"repro/freq/server/binary.go": "server PAIRS zero-copy decode: byte view over the aligned pairs buffer + host endianness probe",
}
