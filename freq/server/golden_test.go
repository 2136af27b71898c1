// Golden wire transcript: seed-pinned servers are driven over raw text
// lines and raw BIN 2 frames — deliberately not through Client, so a
// client refactor cannot move the test — and every reply is compared
// with testdata/golden/transcript.txt. The main script runs against a
// server with every subsystem on (window, durable store, tenant
// registry persisting into that store) and covers every read verb in
// every scope, {all-time, WIN, RANGE} × {global, TENANT}, plus the
// mutating verbs and the error surface. It ingests enough first that
// the summaries have decremented (err>0), so the live per-shard EST
// bands differ visibly from the merged WIN and RANGE bands. Two smaller
// scripts pin the replies of servers running without the optional
// subsystems.
//
// SNAP blobs are recorded as digests. RANGE SNAP blobs are left out:
// the store's merge accumulator draws a random hash seed, so only its
// answers, not its encoding, are reproducible. RANGE bounds are
// recorded as written in the script — {t0+N} on the deterministic slot
// clock, {past} and {future} around wall-clock now — not as the
// seconds they expand to. After an intended wire change, regenerate
// the file with
//
//	go test ./freq/server -run TestGoldenTranscript -update
package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/freq/store"
	"repro/freq/tenant"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/transcript.txt from the current server")

const goldenPath = "testdata/golden/transcript.txt"

// goldenSeed pins every sketch hash seed in the golden servers.
const goldenSeed = 0x901d_e4_7a_5c_41_9e

// goldenT0 is the slot clock's origin: the harness rotates the global
// window at goldenT0+10s, +20s, ... so stored slot bounds are fixed.
var goldenT0 = time.Unix(1_700_000_000, 0)

// step is one scripted exchange. Exactly one form is set:
//   - cmd: a command line, sent as a text line or a CMD frame;
//   - block: pairs scoped to a tenant id ("" = global), sent as a UB
//     block (TENANT <id> UB when scoped) or a v2 PAIRS frame;
//   - text/frame: framing-specific bytes sent verbatim, labelled by
//     label in the transcript;
//   - rotate: the harness rotates the global window to the next slot
//     boundary (no wire traffic).
type step struct {
	cmd    string
	block  *goldenBlock
	text   string
	frame  []byte
	label  string
	rotate bool
}

type goldenBlock struct {
	id             string
	items, weights []int64
}

func cmds(lines ...string) []step {
	out := make([]step, len(lines))
	for i, l := range lines {
		out[i] = step{cmd: l}
	}
	return out
}

// skewed returns n deterministic pairs: a quarter from a 40-item head
// the summaries keep, the rest from a 3000-item tail that forces
// decrements in every budget used here.
func skewed(id string, seed uint64, n int) step {
	b := &goldenBlock{id: id, items: make([]int64, n), weights: make([]int64, n)}
	x := seed
	for i := range b.items {
		x = x*6364136223846793005 + 1442695040888963407
		r := x >> 33
		if r%4 == 0 {
			b.items[i] = int64(r>>2) % 40
		} else {
			b.items[i] = 100 + int64(r>>2)%3000
		}
		b.weights[i] = 1 + int64(r>>20)%9
	}
	return step{block: b}
}

func block(id string, items, weights []int64) step {
	return step{block: &goldenBlock{id: id, items: items, weights: weights}}
}

// rotate flushes the connection's buffered updates (any non-update
// command does) and then rotates the global window into the store.
func rotate() []step { return []step{{cmd: "STATS"}, {rotate: true}} }

func v2Frame(id string, pairs []byte) []byte {
	b := make([]byte, frameHeader+2+len(id)+len(pairs))
	b[0] = opPairs
	binary.LittleEndian.PutUint32(b[1:], uint32(2+len(id)+len(pairs)))
	binary.LittleEndian.PutUint16(b[frameHeader:], uint16(len(id)))
	copy(b[frameHeader+2:], id)
	copy(b[frameHeader+2+len(id):], pairs)
	return b
}

func cmdFrame(line string) []byte {
	b := make([]byte, frameHeader+len(line))
	b[0] = opCmd
	binary.LittleEndian.PutUint32(b[1:], uint32(len(line)))
	copy(b[frameHeader:], line)
	return b
}

// mainScript is the framing-independent part of the full-server script.
func mainScript() []step {
	var s []step
	add := func(steps ...step) { s = append(s, steps...) }
	// Interval 1: global, two tenants, and single updates in both scopes.
	add(skewed("", 1, 3000), skewed("alice", 2, 1500), skewed("bob", 3, 400))
	add(cmds("U 7 500", "U 8 300", "U 9 0", "TENANT alice U 7 250", "TENANT bob U 5 60")...)
	// Rejected blocks leave every summary untouched: a negative weight
	// (global and tenant) and an invalid tenant id.
	add(block("", []int64{40, 50}, []int64{5, -1}))
	add(block("alice", []int64{40, 50}, []int64{5, -1}))
	add(block("bad\x01id", []int64{40}, []int64{5}))
	add(block("", []int64{11, 12, 13}, []int64{0, 0, 3}))
	add(rotate()...)
	// Interval 2.
	add(skewed("", 4, 1500))
	add(cmds("U 7 100")...)
	add(rotate()...)
	// Interval 3 stays live, so WIN sees a current slot too.
	add(skewed("", 5, 800))
	add(cmds("U 42 4242", "STATS")...)

	// Global, all-time: the live per-shard bands.
	add(cmds(
		"EST 7", "EST 1", "EST 8", "EST 42", "EST 150", "EST 999999", "Q 7", "q 1",
		"TOPK 10", "TOP 3", "topk 1",
		"FI 0 200", "FI 1 200", "FI NFP 200", "FI nfn 200", "FI NoFalseNegatives 400", "FI 1 0",
		"HH 20", "HH 100", "HH 0", "HH 1000",
		"SNAP", "SNAPSHOT", "SNAP extra",
		"STATS", "STATS extra",
	)...)
	// Global, WIN: the merged last-w bands.
	add(cmds(
		"WIN 1 EST 42", "WIN 1 EST 7", "WIN 2 EST 7", "WIN 3 EST 7", "WIN 9 EST 7", "WIN 3 Q 1", "WIN 3 EST 999999",
		"WIN 3 TOPK 10", "WIN 2 TOP 5", "WIN 1 TOPK 3",
		"WIN 3 FI 1 100", "WIN 1 FI NFP 10", "WIN 2 FI nfn 0",
		"WIN 3 SNAP", "WIN 2 SNAPSHOT", "WIN 1 SNAP", "WIN 3 SNAP extra",
		"win 3 est 7",
	)...)
	// Global, RANGE: the merged stored bands.
	add(cmds(
		"RANGE {t0} {t0+20} EST 7", "RANGE {t0} {t0+10} EST 7", "RANGE {t0+10} {t0+20} Q 7",
		"RANGE {t0} {t0+20} EST 999999", "RANGE {t0+20} {t0+30} EST 7",
		"RANGE {t0|rfc3339} {t0+20|rfc3339} EST 7",
		"RANGE {t0} {t0+20} TOPK 10", "RANGE {t0} {t0+10} TOP 5",
		"RANGE {t0} {t0+20} FI 1 100", "RANGE {t0} {t0+20} FI NFP 50",
		"RANGE {t0} {t0+20} SNAP", "RANGE {t0} {t0+10} SNAPSHOT",
		"range {t0} {t0+20} est 7",
	)...)

	// TENANT, all-time.
	add(cmds(
		"TENANT alice EST 7", "TENANT alice EST 1", "TENANT alice Q 999999", "TENANT bob EST 5",
		"TENANT alice TOPK 10", "TENANT alice TOP 3", "TENANT bob TOPK 5",
		"TENANT alice FI 1 50", "TENANT alice FI NFP 50",
		"TENANT alice HH 100", "TENANT bob HH 50",
		"TENANT alice SNAP", "TENANT alice SNAPSHOT", "TENANT bob SNAP",
		"TENANT alice STATS", "TENANT bob STATS", "tenant alice est 7",
	)...)
	// TENANT, WIN: rotate alice's twin, then a fresh slot.
	add(cmds(
		"TENANT alice ROTATE", "TENANT alice U 7 10", "TENANT alice U 3 4",
		"TENANT alice WIN 1 EST 7", "TENANT alice WIN 2 EST 7", "TENANT alice WIN 2 Q 3",
		"TENANT alice WIN 2 TOPK 5", "TENANT alice WIN 1 TOP 5",
		"TENANT alice WIN 2 FI 1 10", "TENANT alice WIN 1 FI NFP 0",
		"TENANT alice WIN 2 SNAP", "TENANT alice WIN 1 SNAPSHOT",
	)...)
	// TENANT, RANGE: EVICT persists alice's history into the tenant
	// store, and the recreated tenant starts empty.
	add(cmds(
		"TENANT alice EVICT", "STATS",
		"TENANT alice RANGE {past} {future} EST 7", "TENANT alice RANGE {past} {future} Q 3",
		"TENANT alice RANGE {past} {future} TOPK 10", "TENANT alice RANGE {past} {future} TOP 2",
		"TENANT alice RANGE {past} {future} FI 1 50", "TENANT alice RANGE {past} {future} FI NFP 50",
		"TENANT alice RANGE {past} {future} SNAP",
		"TENANT alice RANGE {t0} {t0+20} EST 7",
		"TENANT bob RANGE {past} {future} EST 5",
		"TENANT alice STATS", "TENANT alice EST 7", "STATS",
	)...)
	// A tenant id is any printable non-space ASCII, '%' included.
	add(block("50%off", []int64{1, 2}, []int64{10, 20}))
	add(cmds("TENANT 50%off U 3 30", "TENANT 50%off EST 2", "TENANT 50%off TOPK 5", "TENANT 50%off EVICT",
		"TENANT 50%off RANGE {past} {future} EST 2", "EST 2")...)

	// Error surface, global all-time.
	add(cmds(
		"NOSUCH 1 2 3", "EVICT", "U", "U 1", "U x y", "U 1 -5", "U 1 2 3",
		"EST", "EST x", "EST 1 2", "Q", "TOPK", "TOPK 0", "TOPK x", "TOP -1", "TOPK 1 2",
		"FI", "FI 1", "FI 9 100", "FI NFP x", "FI 1 2 3", "HH", "HH 5000", "HH x", "HH -1", "HH 1 2",
	)...)
	// Error surface, WIN.
	add(cmds(
		"WIN", "WIN 3", "WIN x EST 1", "WIN 0 EST 1", "WIN -1 EST 1", "WIN 3 NOPE", "WIN 3 HH", "WIN 3 HH 10",
		"WIN 3 EST", "WIN 3 EST x", "WIN 3 Q", "WIN 3 TOPK 0", "WIN 3 TOP", "WIN 3 FI 9 1", "WIN 3 FI 1 x", "WIN 3 FI 1",
		"WIN 3 U 1 1", "WIN 3 UB 1", "WIN 3 STATS", "WIN 3 ROTATE", "WIN 3 RESET", "WIN 3 EVICT",
		"WIN 3 WIN 2 EST 1", "WIN 3 RANGE 1 2 EST 1", "WIN 3 TENANT alice EST 1", "WIN 3 QUIT", "WIN 3 HELLO TEXT 1",
	)...)
	// Error surface, RANGE.
	add(cmds(
		"RANGE", "RANGE 1", "RANGE 1 2", "RANGE x 2 EST 1", "RANGE 1 y EST 1", "RANGE 20 10 EST 1", "RANGE 10 10 EST 1",
		"RANGE {t0} {t0+20} NOPE", "RANGE {t0} {t0+20} HH 10", "RANGE {t0} {t0+20} EST", "RANGE {t0} {t0+20} EST x",
		"RANGE {t0} {t0+20} TOPK 0", "RANGE {t0} {t0+20} FI 1", "RANGE {t0} {t0+20} FI 9 1", "RANGE {t0} {t0+20} FI 1 x",
		"RANGE {t0} {t0+20} U 1 1", "RANGE {t0} {t0+20} WIN 2 EST 1", "RANGE {t0} {t0+20} STATS", "RANGE {t0} {t0+20} TENANT alice EST 1",
	)...)
	// Error surface, TENANT.
	add(cmds(
		"TENANT", "TENANT alice", "TENANT alice NOPE", "TENANT alice HELLO", "TENANT alice HELLO BIN 2",
		"TENANT alice QUIT", "TENANT alice TENANT bob EST 1",
		"TENANT alice U", "TENANT alice U 1", "TENANT alice U x y", "TENANT alice U 1 -5",
		"TENANT alice EVICT extra", "TENANT ghost EVICT", "TENANT bad\x01id EVICT",
		"TENANT alice EST", "TENANT alice EST x", "TENANT alice TOPK 0", "TENANT alice FI 9 1", "TENANT alice HH 5000", "TENANT alice HH",
		"TENANT alice WIN", "TENANT alice WIN 0 EST 1", "TENANT alice WIN 2 HH 5", "TENANT alice WIN 2 NOPE", "TENANT alice WIN 2 U 1 1",
		"TENANT alice RANGE", "TENANT alice RANGE 20 10 EST 1", "TENANT alice RANGE x y EST 1", "TENANT alice RANGE {past} {future} NOPE",
		"TENANT alice RANGE {past} {future} HH 5",
		"TENANT "+strings.Repeat("x", 129)+" EST 1", "TENANT bad\x01id EST 1", "TENANT bad\x01id NOPE",
	)...)

	// Mutations last: wire ROTATE, tenant and global RESET.
	add(cmds(
		"ROTATE", "ROTATE extra", "WIN 1 EST 42", "WIN 3 EST 42", "STATS",
		"TENANT bob RESET", "TENANT bob STATS", "TENANT bob EST 5",
		"RESET", "STATS", "EST 7", "WIN 3 EST 7", "SNAP", "WIN 3 SNAP",
		"RANGE {t0} {t0+20} EST 7", "TENANT bob ROTATE",
	)...)
	return s
}

// textExtras are the text-framing-only exchanges: HELLO negotiation
// (an accepted BIN upgrade would end the text transcript) and the UB
// block's desync discipline.
func textExtras() []step {
	ub := func(label, text string) step { return step{text: text, label: label} }
	s := cmds("HELLO TEXT 1", "hello text 1", "HELLO BIN 9", "HELLO TEXT 2", "HELLO", "HELLO BIN x", "HELLO FOO 1", "HELLO BIN 2 extra")
	return append(s,
		ub("UB (no count)", "UB\n"),
		ub("UB x", "UB x\n"),
		ub("UB 0", "UB 0\n"),
		ub("UB 2 extra + 2 pair lines", "UB 2 extra\n1 1\n2 2\n"),
		ub("UB 2 + [1 1, bad]", "UB 2\n1 1\nbad\n"),
		ub("UB 2 + [1 x, 2 2]", "UB 2\n1 x\n2 2\n"),
		ub("UB 2 + [1 1 1, 2 2]", "UB 2\n1 1 1\n2 2\n"),
		ub("TENANT alice UB (no count)", "TENANT alice UB\n"),
		ub("TENANT alice UB 2 + [1 1, bad]", "TENANT alice UB 2\n1 1\nbad\n"),
		ub("TENANT alice UB 0", "TENANT alice UB 0\n"),
		ub("TENANT ghost2 UB 1 + [1 -1]", "TENANT ghost2 UB 1\n1 -1\n"),
		ub("tab-separated EST", "\tEST\t7  \n"),
		step{cmd: "STATS"},
		step{cmd: "QUIT"},
	)
}

// binExtras are the BIN 2 frame-level exchanges.
func binExtras() []step {
	fr := func(label string, b []byte) step { return step{frame: b, label: label} }
	pair := make([]byte, pairSize)
	binary.LittleEndian.PutUint64(pair, 7)
	binary.LittleEndian.PutUint64(pair[8:], 100)
	lying := v2Frame("alice", pair)
	binary.LittleEndian.PutUint16(lying[frameHeader:], 500)
	return []step{
		fr("CMD HELLO BIN 2", cmdFrame("HELLO BIN 2")),
		fr("CMD HELLO TEXT 1", cmdFrame("HELLO TEXT 1")),
		fr("CMD UB 1", cmdFrame("UB 1")),
		fr("CMD ub 1", cmdFrame("ub 1")),
		fr("CMD TENANT alice UB 1", cmdFrame("TENANT alice UB 1")),
		fr("CMD (empty)", cmdFrame("")),
		fr("CMD (spaces)", cmdFrame("   ")),
		fr("CMD EST 1 newline EST 2", cmdFrame("EST 1\nEST 2")),
		fr("CMD EST 7 with trailing newline", cmdFrame("EST 7\n")),
		fr("opcode 0x7f", []byte{0x7f, 3, 0, 0, 0, 1, 2, 3}),
		fr("opcode 0x81 from client", []byte{opReply, 0, 0, 0, 0}),
		fr("PAIRS v2 shorter than its id header", []byte{opPairs, 1, 0, 0, 0, 0x02}),
		fr("PAIRS v2 id length 500", lying),
		fr("PAIRS v2 ragged pairs", v2Frame("alice", pair[:13])),
		fr("PAIRS v2 id of 200 bytes", v2Frame(strings.Repeat("x", 200), pair)),
		fr("PAIRS v2 global, no pairs", v2Frame("", nil)),
		fr("PAIRS v2 alice, no pairs", v2Frame("alice", nil)),
		{cmd: "TENANT alice EST 7"},
		{cmd: "STATS"},
		{cmd: "QUIT"},
	}
}

// bareScript runs against a server with no window, store or tenants.
func bareScript() []step {
	return append(cmds(
		"WIN 1 EST 1", "WIN", "WIN 0 EST 1", "ROTATE", "RANGE 0 1 EST 1", "RANGE", "RANGE 5 1 EST 1",
		"TENANT a EST 1", "TENANT", "TENANT a EVICT", "STATS", "U 1 5", "EST 1", "RESET", "EST 1",
	), block("", []int64{1}, []int64{2}), step{cmd: "EST 1"})
}

// tenantsOnlyScript runs against a server whose tenants have no window
// and no store.
func tenantsOnlyScript() []step {
	return append(cmds(
		"TENANT a U 1 5", "TENANT a WIN 1 EST 1", "TENANT a WIN", "TENANT a ROTATE", "TENANT a RANGE 0 1 EST 1",
		"TENANT a RANGE", "TENANT a STATS", "TENANT a RESET", "TENANT a EST 1", "STATS",
	), block("a", []int64{1}, []int64{2}), step{cmd: "TENANT a EST 1"})
}

// goldenServer starts one server in the given configuration: "full"
// (every subsystem), "bare" (none), or "tenants" (a registry without
// windows or stores).
func goldenServer(t *testing.T, kind string) *testServer {
	t.Helper()
	switch kind {
	case "bare":
		return startServer(t, Config{MaxCounters: 64, Shards: 2, Seed: goldenSeed})
	case "tenants":
		mgr, err := tenant.New[int64](tenant.Config{MaxCounters: 32, Shards: 2, Seed: goldenSeed, MaxTenants: 4})
		if err != nil {
			t.Fatal(err)
		}
		return startServer(t, Config{MaxCounters: 64, Shards: 2, Seed: goldenSeed, Tenants: mgr})
	}
	// One partition spans a century, so slots rotated by the wire
	// ROTATE (stamped with wall-clock time) land in the same partition
	// as the harness's and STATS partitions= stays fixed.
	const century = 100 * 365 * 24 * time.Hour
	st, err := store.Open[int64](t.TempDir(), store.WithPartitionDuration(century))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mgr, err := tenant.New[int64](tenant.Config{
		MaxCounters: 32, Shards: 2, WindowIntervals: 3, Seed: goldenSeed, MaxTenants: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{
		MaxCounters: 64, Shards: 2, WindowIntervals: 3, Seed: goldenSeed,
		Store: st, Tenants: mgr.SetSink(st),
	})
	srv.Windowed().SetRotationSink(st, goldenT0)
	return srv
}

// goldenConn is one raw connection, in text framing or BIN 2.
type goldenConn struct {
	t    *testing.T
	nc   net.Conn
	r    *bufio.Reader
	bin  bool
	out  *strings.Builder
	slot int
	now  time.Time
}

func (g *goldenConn) printf(format string, args ...any) { fmt.Fprintf(g.out, format, args...) }

// expand substitutes the RANGE bound placeholders.
func (g *goldenConn) expand(line string) string {
	for {
		i := strings.Index(line, "{")
		if i < 0 {
			return line
		}
		j := strings.Index(line[i:], "}") + i
		tok := line[i+1 : j]
		var ts time.Time
		name, format, rfc := strings.Cut(tok, "|")
		switch {
		case name == "past":
			ts = g.now.Add(-time.Hour)
		case name == "future":
			ts = g.now.Add(time.Hour)
		case strings.HasPrefix(name, "t0"):
			secs := 0
			if rest := strings.TrimPrefix(name, "t0"); rest != "" {
				secs, _ = strconv.Atoi(rest)
			}
			ts = goldenT0.Add(time.Duration(secs) * time.Second)
		default:
			g.t.Fatalf("unknown placeholder %q", tok)
		}
		val := strconv.FormatInt(ts.Unix(), 10)
		if rfc && format == "rfc3339" {
			val = ts.UTC().Format(time.RFC3339)
		}
		line = line[:i] + val + line[j+1:]
	}
}

// send ships one step's request bytes and returns its label.
func (g *goldenConn) send(s step) string {
	var req []byte
	label := s.label
	switch {
	case s.cmd != "":
		line := g.expand(s.cmd)
		label = s.cmd
		if g.bin {
			req = cmdFrame(line)
		} else {
			req = []byte(line + "\n")
		}
	case s.block != nil:
		b := s.block
		var sum int64
		for _, w := range b.weights {
			sum += w
		}
		label = fmt.Sprintf("BLOCK id=%q pairs=%d weight=%d", b.id, len(b.items), sum)
		if g.bin {
			pairs := make([]byte, len(b.items)*pairSize)
			for i := range b.items {
				binary.LittleEndian.PutUint64(pairs[i*pairSize:], uint64(b.items[i]))
				binary.LittleEndian.PutUint64(pairs[i*pairSize+8:], uint64(b.weights[i]))
			}
			req = v2Frame(b.id, pairs)
		} else {
			var buf bytes.Buffer
			if b.id != "" {
				fmt.Fprintf(&buf, "TENANT %s ", b.id)
			}
			fmt.Fprintf(&buf, "UB %d\n", len(b.items))
			for i := range b.items {
				fmt.Fprintf(&buf, "%d %d\n", b.items[i], b.weights[i])
			}
			req = buf.Bytes()
		}
	case s.frame != nil:
		req = s.frame
	default:
		req = []byte(s.text)
	}
	g.nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := g.nc.Write(req); err != nil {
		g.t.Fatalf("%s: write: %v", label, err)
	}
	return label
}

// reply reads one whole reply: a frame payload in binary framing, or in
// text framing one line plus the MULTI rows or SNAP blob it announces.
func (g *goldenConn) reply(label string) []byte {
	if g.bin {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(g.r, hdr[:]); err != nil {
			g.t.Fatalf("%s: read frame header: %v", label, err)
		}
		if hdr[0] != opReply {
			g.t.Fatalf("%s: reply opcode 0x%02x", label, hdr[0])
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[1:]))
		if _, err := io.ReadFull(g.r, payload); err != nil {
			g.t.Fatalf("%s: read frame payload: %v", label, err)
		}
		return payload
	}
	line, err := g.r.ReadBytes('\n')
	if err != nil {
		g.t.Fatalf("%s: read reply: %v", label, err)
	}
	out := line
	var n int
	switch {
	case bytes.HasPrefix(line, []byte("MULTI ")):
		fmt.Sscanf(string(line), "MULTI %d", &n)
		for i := 0; i < n; i++ {
			row, err := g.r.ReadBytes('\n')
			if err != nil {
				g.t.Fatalf("%s: read row: %v", label, err)
			}
			out = append(out, row...)
		}
	case bytes.HasPrefix(line, []byte("SNAP ")):
		fmt.Sscanf(string(line), "SNAP %d", &n)
		blob := make([]byte, n)
		if _, err := io.ReadFull(g.r, blob); err != nil {
			g.t.Fatalf("%s: read blob: %v", label, err)
		}
		out = append(out, blob...)
	}
	return out
}

// record renders one reply: its lines as sent, except that a SNAP blob
// becomes a digest (or is left out for RANGE, see the file comment).
func (g *goldenConn) record(label string, payload []byte) {
	g.printf("> %s\n", printable(label))
	omitBlob := strings.Contains(strings.ToUpper(label), "RANGE")
	for len(payload) > 0 {
		i := bytes.IndexByte(payload, '\n')
		if i < 0 {
			g.printf("%s (no newline)\n", printable(string(payload)))
			return
		}
		line := string(payload[:i])
		payload = payload[i+1:]
		var n int
		if _, err := fmt.Sscanf(line, "SNAP %d", &n); err == nil && n <= len(payload) {
			blob := payload[:n]
			payload = payload[n:]
			if omitBlob {
				g.printf("%s <blob not recorded>\n", line)
			} else {
				g.printf("%s sha256:%x\n", line, sha256.Sum256(blob))
			}
			continue
		}
		g.printf("%s\n", printable(line))
	}
}

// printable quotes a line that carries control bytes.
func printable(s string) string {
	if strings.IndexFunc(s, func(r rune) bool { return r < 0x20 || r > 0x7e }) >= 0 {
		return strconv.Quote(s)
	}
	return s
}

// runGolden executes steps on a fresh connection to srv in the given framing.
func runGolden(t *testing.T, out *strings.Builder, srv *testServer, bin bool, steps []step) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	g := &goldenConn{t: t, nc: nc, r: bufio.NewReader(nc), out: out, now: time.Now()}
	if bin {
		g.send(step{cmd: "HELLO BIN 2"})
		g.record("HELLO BIN 2", g.reply("HELLO BIN 2"))
		g.bin = true
	}
	for _, s := range steps {
		if s.rotate {
			g.slot++
			srv.Windowed().RotateAt(goldenT0.Add(time.Duration(10*g.slot) * time.Second))
			if err := srv.Windowed().SinkErr(); err != nil {
				t.Fatal(err)
			}
			g.printf("# rotate at {t0+%d}\n", 10*g.slot)
			continue
		}
		label := g.send(s)
		g.record(label, g.reply(label))
	}
}

func TestGoldenTranscript(t *testing.T) {
	var out strings.Builder
	for _, sec := range []struct {
		server string
		bin    bool
		steps  []step
	}{
		{"full", false, append(mainScript(), textExtras()...)},
		{"full", true, append(mainScript(), binExtras()...)},
		{"bare", false, bareScript()},
		{"bare", true, bareScript()},
		{"tenants", false, tenantsOnlyScript()},
		{"tenants", true, tenantsOnlyScript()},
	} {
		framing := "text"
		if sec.bin {
			framing = "bin2"
		}
		fmt.Fprintf(&out, "== %s server, %s framing ==\n", sec.server, framing)
		runGolden(t, &out, goldenServer(t, sec.server), sec.bin, sec.steps)
	}
	got := out.String()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("transcript diverges from %s at line %d:\n  got:  %q\n  want: %q\n(after an intended wire change, rerun with -update)", goldenPath, i+1, g, w)
		}
	}
}
