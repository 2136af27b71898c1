// Package server provides a line-protocol TCP service around the
// concurrent frequent-items sketch: the deployment shape of the §1.2
// motivation, where collectors stream weighted updates (bytes per
// source, watch time per user) and operators issue point and
// heavy-hitter queries against the live summary. Everything is stdlib
// net + the public freq API; one goroutine per connection, queries and
// updates freely interleaved. This file is the wire-protocol reference:
// a third-party client can be written from it alone.
//
// # Framing
//
// Every connection starts in the text framing below. A client may send
// "HELLO BIN 2" (or "HELLO BIN 1") to negotiate the length-prefixed
// binary framing (see "Binary framing"), which carries the same
// commands and byte-identical replies at a fraction of the per-item
// cost; the text protocol remains the debugging surface
// ("printf | nc" keeps working forever).
//
// The text protocol is line-oriented UTF-8: one request per
// '\n'-terminated line, fields separated by any run of spaces or tabs,
// at most 64 KiB per line. Command words are case-insensitive; items
// and weights are decimal int64. Blank lines are ignored. The only
// non-line payload is the SNAPSHOT reply, which carries a binary blob
// of exactly the announced length immediately after its header line.
//
// Every request receives exactly one reply (a single line, a MULTI
// block, or a SNAP header plus blob) in request order, so clients may
// pipeline freely. A malformed or failed request receives
//
//	ERR <human-readable reason>
//
// and the connection remains usable. Unknown commands are ERRs, not
// disconnects.
//
// # Commands
//
//	U <item> <weight>     add weight to item          -> "OK"
//	UB <count>            batched update block        -> "OK <count>"
//	EST <item>            point query                 -> "EST <estimate> <lower> <upper>"
//	Q <item>              alias of EST                -> "EST <estimate> <lower> <upper>"
//	TOPK <k>              top k items                 -> MULTI block
//	TOP <n>               alias of TOPK               -> MULTI block
//	FI <et> <threshold>   items above a threshold     -> MULTI block
//	HH <phi-millis>       items above phi/1000 * N    -> MULTI block
//	STATS                 summary state               -> "STATS n=<N> err=<maxError> shards=<s> slots=<w> partitions=<p> tenants=<t> tenants_max=<m> tenant_evictions=<e>"
//	SNAP                  serialized summary          -> "SNAP <bytes>" then <bytes> of sketch wire format
//	SNAPSHOT              alias of SNAP               -> "SNAP <bytes>" then blob
//	WIN <w> <cmd> ...     window-scoped query         -> the scoped command's ordinary reply
//	RANGE <f> <t> <cmd> .. historical range query      -> the scoped command's ordinary reply
//	TENANT <id> <cmd> ... tenant-scoped command       -> the scoped command's ordinary reply
//	ROTATE                advance the window          -> "OK <rotations>"
//	RESET                 clear the summary           -> "OK"
//	HELLO <proto> <ver>   negotiate framing           -> "HELLO <proto> <ver>" or ERR
//	QUIT                  close the connection        -> "BYE"
//
// STATS fields beyond shards describe optional subsystems and read 0
// when the subsystem is off: slots is the sliding window's interval
// count, partitions the durable store's live partition count, and the
// tenants triple the tenant registry's occupancy, capacity, and
// lifetime eviction count. Clients parse STATS as key=value fields and
// ignore unknown keys.
//
// A MULTI block is a header line "MULTI <k>" followed by k lines
//
//	ITEM <item> <estimate> <lowerBound> <upperBound>
//
// ordered by descending estimate, ties by ascending item (the query
// layer's deterministic order).
//
// # Query commands
//
// EST, TOPK, FI, and SNAP are the read side of the unified query layer
// (freq.Queryable): EST answers the three point values in one round
// trip; an all-time TOPK ranks each shard's largest counters, and falls
// back to the merged view only when they tie at a shard's cut; FI
// extracts rows from the server's epoch-cached merged view, so repeated
// reads against an unchanged summary re-merge nothing. FI's <et> field
// selects the error-band semantics — 0 or NFP for no-false-positives
// (LowerBound > threshold), 1 or NFN for no-false-negatives
// (UpperBound > threshold); <threshold> is an absolute weight (compute
// phi*N from STATS for relative queries, or use HH). Row values reflect
// the merged summary's single global error band, the same answer a
// coordinator holding the shipped snapshot would give, whichever path
// ranked them.
//
// SNAP transfers the full serialized summary and is the unit of the
// distributed fan-out: server.Cluster issues SNAP to every node
// concurrently, merges the summaries at the coordinator (the paper's
// §3 mergeability), and serves the merged view through the same
// queryable interface. The blob is the server's epoch-cached merged
// view, encoded with the alloc-free append kernel into a per-connection
// buffer: a SNAP poll loop against an unchanged summary re-merges
// nothing and allocates nothing after the first reply.
//
// UB <count> is the bulk ingest command: the next <count> lines each
// carry one "<item> <weight>" pair, with 1 <= count <= 2^20. The block
// is all-or-nothing — a malformed line or a negative weight consumes
// the whole block, applies none of it, and replies ERR. An out-of-range
// (but parseable) count is likewise rejected only after the announced
// pair lines are consumed, so a rejected block never desynchronizes the
// reply stream. On success the server applies the batch through the
// sketch's partitioned bulk path and replies "OK <count>".
//
// # Windowing
//
// A server started with a sliding window (Config.WindowIntervals,
// freqd's -window flag) maintains a rotating ring of per-interval
// sketches alongside the all-time summary; every update lands in both.
// WIN scopes a read to the merged view of the last <w> window intervals
// (w >= 1, clamped to the ring size). The merge is lossless, so the
// server builds it only where it must: WIN EST sums one lookup per
// interval, and WIN TOPK ranks from each interval's 2k largest counters
// and merges only when that cannot certify the top k (flat traffic);
// WIN FI and WIN SNAP merge. Every reply equals the merged view's:
//
//	WIN <w> EST <item>            windowed point query   -> "EST <estimate> <lower> <upper>"
//	WIN <w> TOPK <k>              windowed top k         -> MULTI block
//	WIN <w> FI <et> <threshold>   windowed threshold     -> MULTI block
//	WIN <w> SNAP                  windowed snapshot      -> "SNAP <bytes>" then blob
//
// Q, TOP, and SNAPSHOT alias inside WIN exactly as they do at top
// level. WIN SNAP's blob is the ordinary single-sketch wire format —
// the merged last-w view — so the same client decode path (and the
// Cluster fan-out, via RefreshWindow) consumes it. ROTATE advances the
// ring one interval: the oldest interval's counters leave the window
// and its sketch is recycled as the new head. freqd drives rotation
// with a wall-clock ticker (-rotate-every); ROTATE composes with it for
// tests and manual interval boundaries. On a server with no window
// configured, WIN and ROTATE reply ERR.
//
// # Historical ranges
//
// A server wired to a durable store (Config.Store, freqd's -store-dir
// flag) also answers over intervals that have already left the window:
// every rotation hands the retired interval to the store, and RANGE
// merges the persisted slots overlapping [<from>, <to>) back into one
// summary, scoping the same read commands WIN scopes:
//
//	RANGE <from> <to> EST <item>            historical point query  -> "EST <estimate> <lower> <upper>"
//	RANGE <from> <to> TOPK <k>              historical top k        -> MULTI block
//	RANGE <from> <to> FI <et> <threshold>   historical threshold    -> MULTI block
//	RANGE <from> <to> SNAP                  historical snapshot     -> "SNAP <bytes>" then blob
//
// <from> and <to> are each either decimal unix seconds or an RFC 3339
// timestamp ("2026-01-02T15:04:05Z"); <to> must be strictly after
// <from>. The range is half-open and selects whole persisted slots by
// overlap, so answers are exact at slot boundaries and conservative
// (slot-granular) inside them. Q, TOP, and SNAPSHOT alias inside RANGE
// exactly as they do at top level, and RANGE SNAP's blob is the
// ordinary single-sketch wire format. The merged accumulator is
// recycled per connection, so a polling loop over a stable range
// allocates nothing after the first reply. The live head interval is
// not visible to RANGE until it rotates. TENANT <id> RANGE reads that
// tenant's history from the same store (see "Multi-tenancy"). On a
// server with no store configured, RANGE replies ERR in every scope.
//
// # Multi-tenancy
//
// A server started with a tenant registry (Config.Tenants, freqd's
// -tenants flag) also serves isolated per-tenant summaries keyed by an
// opaque id. TENANT scopes any command to one tenant's sketch:
//
//	TENANT <id> U <item> <weight>     tenant update            -> "OK"
//	TENANT <id> UB <count>            tenant bulk ingest       -> "OK <count>"  (text framing only)
//	TENANT <id> EST <item>            tenant point query       -> "EST <estimate> <lower> <upper>"
//	TENANT <id> TOPK <k>              tenant top k             -> MULTI block
//	TENANT <id> FI <et> <threshold>   tenant threshold         -> MULTI block
//	TENANT <id> HH <phi-millis>       tenant heavy hitters     -> MULTI block
//	TENANT <id> STATS                 tenant summary state     -> "STATS n=<N> err=<maxError> shards=<s> slots=<w>"
//	TENANT <id> SNAP                  tenant snapshot          -> "SNAP <bytes>" then blob
//	TENANT <id> WIN <w> <cmd> ...     tenant windowed query    -> the scoped command's ordinary reply
//	TENANT <id> RANGE <f> <t> <cmd> . tenant historical query  -> the scoped command's ordinary reply
//	TENANT <id> ROTATE                advance tenant window    -> "OK <rotations>"
//	TENANT <id> RESET                 clear tenant summary     -> "OK"
//	TENANT <id> EVICT                 evict the tenant         -> "OK"
//
// A tenant id is 1 to 128 bytes of printable non-space ASCII. Tenants
// are created lazily: the first TENANT command naming an id allocates
// its sketch (plus a windowed twin when the server has a window) from
// the server's shared geometry template. The registry is bounded —
// creating one past Config.Tenants' capacity evicts the idlest live
// tenant first — and idle tenants past the configured TTL are swept in
// the background (freqd's -max-tenants and -tenant-ttl flags).
//
// EVICT retires a tenant immediately: when the registry persists into
// the server's store (automatic with freqd's -store-dir), the evicted
// tenant's counters are first written under a tenant-scoped partition
// prefix, so TENANT <id> RANGE answers over the full history —
// including pre-eviction generations — after the tenant is re-created. EVICT on
// an id that was never created replies ERR ("unknown tenant"); all
// other TENANT commands create on demand. Q, TOP, and SNAPSHOT alias
// inside TENANT exactly as they do at top level. The aliases, error
// surfaces, and reply bytes of every scoped command are identical to
// the global forms; the cross-framing conformance suite pins that.
//
// The Go Client spells every scope the same way: c.Tenant(id),
// c.Window(w) and c.Range(from, to) each return a *Client handle over
// the same connection whose verb methods send the scope prefix, and
// they compose — c.Tenant("alice") then .Window(5).TopK(10) sends
// "TENANT alice WIN 5 TOPK 10".
//
// Over binary framing, TENANT commands travel in CMD frames like any
// other — except TENANT UB, which is rejected ("text-framing only"):
// binary clients carry tenant bulk ingest in v2 PAIRS frames instead
// (see "Binary framing"). The global STATS reply's tenants,
// tenants_max, and tenant_evictions fields report registry occupancy;
// the per-tenant STATS reply carries only that tenant's counters.
//
// # Update visibility
//
// Updates are the hot path and ride a per-connection buffered writer
// (freq.Writer): "OK" acknowledges that an update is durably buffered,
// not yet necessarily merged into the shared summary. The buffer is
// flushed into the summary when it reaches the writer's batch size, when
// the same connection issues any non-update command (so a connection
// always reads its own writes), and when the connection ends — QUIT's
// "BYE" therefore also acknowledges the flush. Readers on other
// connections may lag a connection's unflushed tail by at most one batch
// (freq.DefaultBatchSize pairs).
//
// # Binary framing
//
// "HELLO BIN <version>" upgrades a connection to binary framing — the
// bulk ingest path for high-rate collectors, where a frame of
// fixed-width pairs decodes into the sketch's partitioned bulk path
// with zero copies. Two versions exist: v1 (global pairs frames) and
// v2 (pairs frames carry an optional tenant id). Negotiation happens
// in text and descends, so it composes with servers of any age — a
// client offers its highest version and steps down one ERR at a time:
//
//	client                         server
//	  | -- "HELLO BIN 2\n" ------->  |
//	  | <------ "HELLO BIN 2\n" --   |   upgrade: both sides binary v2
//	  | <- "ERR unsupported ..." --- |   v1-only server: still text...
//	  | -- "HELLO BIN 1\n" ------->  |   ...so offer the next version
//	  | <------ "HELLO BIN 1\n" --   |   upgrade: both sides binary v1
//	  | <- "ERR unknown command.." - |   ancient server: stay text, no desync
//
// The accepting reply is the last text line either side sends on an
// upgraded connection; every subsequent byte in both directions is
// framed as
//
//	+--------+--------------------------------+----------------------+
//	| opcode | payload length (uint32 LE)     | payload              |
//	| 1 byte | 4 bytes                        | <length> bytes       |
//	+--------+--------------------------------+----------------------+
//
// with three opcodes:
//
//	0x01 PAIRS  client->server  bulk update block of fixed-width pairs,
//	                            each [item int64 LE][weight int64 LE].
//	                            Reply: "OK <count>", as for UB.
//	0x02 CMD    client->server  one text command line (no newline
//	                            needed); any command except UB and
//	                            TENANT UB.
//	0x81 REPLY  server->client  every reply: the payload is exactly the
//	                            bytes the text framing would have sent
//	                            for the same command, including MULTI
//	                            blocks and SNAP header+blob.
//
// Under v1 a PAIRS payload is the pairs alone (length/16 of them),
// always scoped to the global summary. Under v2 the payload starts
// with a tenant-id header:
//
//	+--------------------+----------------+----------------------+
//	| id length (u16 LE) | tenant id      | pairs                |
//	| 2 bytes            | <idlen> bytes  | 16 bytes each        |
//	+--------------------+----------------+----------------------+
//
// An id length of 0 scopes the frame to the global summary (v2's
// spelling of a v1 frame); a non-zero id scopes it to that tenant,
// created on demand exactly as a TENANT command would. The id is
// validated against the tenant-id rules before any weight is applied,
// and a payload shorter than its announced id header is rejected
// whole. MaxFrameBytes caps a v2 payload two bytes plus a maximum id
// (130 bytes) above the v1 pairs cap, so a full 2^20-pair batch still
// fits under any tenant id.
//
// A PAIRS block follows UB's rules: all-or-nothing validation, at most
// 2^20 pairs per frame (MaxFrameBytes caps the payload at 16 MiB), zero
// weights are no-ops, a negative weight rejects the whole frame with
// ERR and applies nothing. A misaligned PAIRS length or an unknown
// opcode is answered with an ERR frame and the payload is discarded —
// the length prefix keeps the stream synchronized, so the connection
// stays usable. A length exceeding MaxFrameBytes is answered once and
// the connection dropped, mirroring the text protocol's oversized-UB
// policy. UB itself is rejected over CMD frames (its pair lines belong
// to the text framing), and TENANT UB likewise — a v1 binary client
// that needs tenant-scoped ingest sends per-update TENANT U command
// frames, which is exactly what the stock client does when a v2 offer
// is declined. HELLO inside a CMD frame cannot downgrade an upgraded
// connection.
//
// Because replies are byte-identical across framings, the two protocols
// are one protocol under two encodings; the cross-framing conformance
// suite holds them to that.
//
// # Fault tolerance
//
// Both ends of the wire defend themselves against the other end dying,
// wedging, or lying mid-frame.
//
// Server side: Config.IdleTimeout drops connections parked between
// commands; Config.IOTimeout arms a per-command deadline that re-arms
// on every pair line and frame payload, so a peer making progress is
// never cut off and a stalled one always is. Server.Shutdown drains
// gracefully — stops accepting, closes idle connections, lets every
// in-flight command finish and flush its reply, and hard-closes the
// rest when its context expires. Ingest stays all-or-nothing under
// every cut: a UB block or PAIRS frame that is severed mid-stream
// applies no weight at all.
//
// Client side: WithDialTimeout and WithIOTimeout bound every dial and
// round trip; a wire failure surfaces as a typed *TransportError
// (distinct from a server ERR, which means the request was received
// and answered) and poisons the connection, so the next operation
// re-dials instead of trusting a desynchronized stream. A reply that is
// not ERR and does not parse counts as a wire failure: its unread rest
// would otherwise be taken for the next command's answer. WithRetry
// re-runs idempotent reads (EST, TOPK, FI, HH, SNAP, STATS — through
// any Tenant, Window or Range handle) across reconnects with jittered
// exponential backoff; ingest (U, UB, PAIRS) is never auto-retried,
// because a lost acknowledgement makes applied-or-not unknowable and
// re-sending risks double counting — that call belongs to the caller.
// Close bounds its QUIT/BYE handshake so a dead peer cannot hang it.
//
// Fleet side: Cluster refreshes fan out with per-node bounds
// (WithNodeTimeout) and merge whichever subset answers, down to
// WithQuorum; the Manifest reports per-node latency, snapshot size,
// and failure so degraded views are visible. The internal/netfault
// harness drives all of this under injected latency, short writes,
// mid-frame resets, and accept failures in the fault test suite.
//
// # Errors
//
// ERR reasons are free-form text for humans; clients should treat any
// ERR as a failed request and not parse the reason. Weight rules follow
// the freq package: negative weights are rejected, zero weights are
// accepted no-ops.
package server
