// Command genfuzzcorpus regenerates the committed seed corpora for the
// CI fuzz smokes. Each corpus entry is written in the `go test fuzz v1`
// encoding so plain `go test` replays it as part of the seed corpus and
// `go test -fuzz` mutates outward from structurally valid inputs
// instead of groping for the magic bytes from scratch.
//
// The inputs are deterministic (fixed sketch seeds, fixed timestamps),
// so rerunning the generator after a wire-format change refreshes the
// corpora in one command:
//
//	go run ./cmd/genfuzzcorpus -root .
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/freq"
	"repro/freq/store"
)

func main() {
	root := flag.String("root", ".", "repository root to write testdata under")
	flag.Parse()

	if err := run(*root); err != nil {
		fmt.Fprintln(os.Stderr, "genfuzzcorpus:", err)
		os.Exit(1)
	}
}

func run(root string) error {
	sketch, err := sketchCorpus()
	if err != nil {
		return err
	}
	if err := writeCorpus(filepath.Join(root, "testdata", "fuzz", "FuzzSketchReadFrom"), sketch); err != nil {
		return err
	}
	partition, err := partitionCorpus()
	if err != nil {
		return err
	}
	if err := writeCorpus(filepath.Join(root, "testdata", "fuzz", "FuzzStorePartitionDecode"), partition); err != nil {
		return err
	}
	if err := writeCorpus(filepath.Join(root, "freq", "server", "testdata", "fuzz", "FuzzBinaryFrameDecode"), frameCorpus()); err != nil {
		return err
	}
	if err := writeCorpus(filepath.Join(root, "freq", "server", "testdata", "fuzz", "FuzzTenantCommand"), tenantCorpus()); err != nil {
		return err
	}
	reply, err := clientReplyCorpus()
	if err != nil {
		return err
	}
	return writeCorpus(filepath.Join(root, "freq", "server", "testdata", "fuzz", "FuzzClientReply"), reply)
}

// sketchCorpus seeds the bulk-decode fuzzer: a valid marshaled sketch,
// a truncated one, and magic bytes with a hostile body.
func sketchCorpus() (map[string][]byte, error) {
	s, err := freq.New[int64](64, freq.WithSeed(2))
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < 2000; i++ {
		if err := s.Update(i%150, i%11+1); err != nil {
			return nil, err
		}
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	small, err := freq.New[int64](8, freq.WithSeed(3))
	if err != nil {
		return nil, err
	}
	if err := small.Update(42, 7); err != nil {
		return nil, err
	}
	smallBlob, err := small.MarshalBinary()
	if err != nil {
		return nil, err
	}
	zeroed := append([]byte(nil), blob...)
	for i := len(zeroed) / 2; i < len(zeroed); i++ {
		zeroed[i] = 0
	}
	return map[string][]byte{
		"seed-valid":       blob,
		"seed-small":       smallBlob,
		"seed-truncated":   blob[:len(blob)-1],
		"seed-header-only": blob[:16],
		"seed-zeroed-body": zeroed,
	}, nil
}

// partitionCorpus seeds the durable-store fuzzer with the bytes of a
// real two-slot partition file plus damaged variants.
func partitionCorpus() (map[string][]byte, error) {
	dir, err := os.MkdirTemp("", "genfuzzcorpus-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open[int64](dir)
	if err != nil {
		return nil, err
	}
	base := time.Unix(1_700_000_000, 0).UTC()
	for slot := 0; slot < 2; slot++ {
		from := base.Add(time.Duration(slot) * time.Second)
		if err := appendSeedSlot(st, slot, from); err != nil {
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	parts, err := filepath.Glob(filepath.Join(dir, "part-*.fps"))
	if err != nil {
		return nil, err
	}
	if len(parts) != 1 {
		return nil, fmt.Errorf("expected one partition file, got %v", parts)
	}
	seed, err := os.ReadFile(parts[0])
	if err != nil {
		return nil, err
	}
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0xff
	return map[string][]byte{
		"seed-valid":      seed,
		"seed-half":       seed[:len(seed)/2],
		"seed-bit-flip":   flipped,
		"seed-magic-only": []byte("FPS1"),
	}, nil
}

// appendSeedSlot fills one deterministic window sketch and persists it
// as the partition slot covering [from, from+1s).
func appendSeedSlot(st *store.Store[int64], slot int, from time.Time) error {
	sk, err := freq.New[int64](256, freq.WithSeed(uint64(5+slot)))
	if err != nil {
		return err
	}
	for i := int64(0); i < 200; i++ {
		if err := sk.Update(i%40, i%7+1); err != nil {
			return err
		}
	}
	return st.AppendSlot(freq.NewView(sk), from, from.Add(time.Second))
}

// frameCorpus seeds the binary-protocol fuzzer. Opcode and layout
// constants are spelled as raw bytes on purpose: the corpus documents
// the wire, not the implementation.
func frameCorpus() map[string][]byte {
	const (
		opPairs = 0x01
		opCmd   = 0x02
		opReply = 0x81
	)
	frame := func(op byte, payload []byte) []byte {
		b := make([]byte, 5+len(payload))
		b[0] = op
		binary.LittleEndian.PutUint32(b[1:], uint32(len(payload)))
		copy(b[5:], payload)
		return b
	}
	pairs := make([]byte, 32)
	binary.LittleEndian.PutUint64(pairs[0:], 7)
	binary.LittleEndian.PutUint64(pairs[8:], 100)
	binary.LittleEndian.PutUint64(pairs[16:], 8)
	binary.LittleEndian.PutUint64(pairs[24:], 50)
	hostile := []byte{opPairs, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hostile[1:], 0xffff_ffff)
	return map[string][]byte{
		"seed-pairs":          frame(opPairs, pairs),
		"seed-pairs-ragged":   frame(opPairs, pairs[:13]),
		"seed-pairs-headless": {opPairs, 16, 0, 0, 0},
		"seed-hostile-length": hostile,
		"seed-unknown-opcode": frame(0x7f, nil),
		"seed-client-reply":   frame(opReply, []byte("OK 1\n")),
		"seed-cmd-est":        frame(opCmd, []byte("EST 42")),
		"seed-cmd-newline":    frame(opCmd, []byte("EST\nTOPK 1")),
		"seed-cmd-ub":         frame(opCmd, []byte("UB 2")),
		"seed-cmd-rehello":    frame(opCmd, []byte("HELLO BIN 2")),
	}
}

// tenantCorpus seeds the tenant-protocol fuzzer: v2 pairs frames (a
// 2-byte little-endian id length and the id precede the pairs; length 0
// scopes to the global summary) plus TENANT command frames. Like
// frameCorpus, the layout is spelled in raw bytes: the corpus documents
// the wire.
func tenantCorpus() map[string][]byte {
	const (
		opPairs = 0x01
		opCmd   = 0x02
	)
	frame := func(op byte, payload []byte) []byte {
		b := make([]byte, 5+len(payload))
		b[0] = op
		binary.LittleEndian.PutUint32(b[1:], uint32(len(payload)))
		copy(b[5:], payload)
		return b
	}
	v2pairs := func(id string, pairs []byte) []byte {
		payload := make([]byte, 2+len(id)+len(pairs))
		binary.LittleEndian.PutUint16(payload, uint16(len(id)))
		copy(payload[2:], id)
		copy(payload[2+len(id):], pairs)
		return frame(opPairs, payload)
	}
	pair := make([]byte, 16)
	binary.LittleEndian.PutUint64(pair, 7)
	binary.LittleEndian.PutUint64(pair[8:], 100)
	idLies := v2pairs("alice", pair)
	binary.LittleEndian.PutUint16(idLies[5:], 500)
	longID := make([]byte, 200)
	for i := range longID {
		longID[i] = 'x'
	}
	return map[string][]byte{
		"seed-v2-pairs":        v2pairs("alice", pair),
		"seed-v2-global":       v2pairs("", pair),
		"seed-v2-id-lies":      idLies,
		"seed-v2-id-toolong":   v2pairs(string(longID), pair),
		"seed-v2-id-invalid":   v2pairs("bad id\x01", pair),
		"seed-v2-ragged-pairs": v2pairs("alice", pair[:13]),
		"seed-v2-headerless":   {opPairs, 1, 0, 0, 0, 0x02},
		"seed-cmd-tenant-est":  frame(opCmd, []byte("TENANT alice EST 7")),
		"seed-cmd-tenant-ub":   frame(opCmd, []byte("TENANT alice UB 2")),
		"seed-cmd-evict":       frame(opCmd, []byte("TENANT alice EVICT")),
		"seed-cmd-rotate":      frame(opCmd, []byte("TENANT alice ROTATE")),
	}
}

// clientReplyCorpus seeds the client-reply fuzzer with one well-formed
// reply per read verb (a MULTI block, a SNAP blob, an EST triple, a
// STATS line, a ROTATE acknowledgement), an ERR line, and the broken
// peers' replies the fault tests script: a blob that does not decode, a
// header of the wrong verb, negative and absurd counts, and a MULTI
// block that stops short. Replies are text; the fuzzer frames them
// itself for BIN 2.
func clientReplyCorpus() (map[string][]byte, error) {
	s, err := freq.New[int64](8, freq.WithSeed(4))
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < 20; i++ {
		if err := s.Update(i%5, i+1); err != nil {
			return nil, err
		}
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		"seed-multi":          []byte("MULTI 2\nITEM 7 12 8 12\nITEM 8 5 1 5\n"),
		"seed-snap":           append([]byte("SNAP "+strconv.Itoa(len(blob))+"\n"), blob...),
		"seed-est":            []byte("EST 12 8 12\n"),
		"seed-stats":          []byte("STATS n=15933 err=196 shards=2 slots=3 partitions=0 tenants=2 tenants_max=16 tenant_evictions=0\n"),
		"seed-rotated":        []byte("OK 3\n"),
		"seed-err":            []byte("ERR no snapshot here\n"),
		"seed-corrupt-blob":   []byte("SNAP 8\nnotasnap"),
		"seed-wrong-header":   []byte("OK\n"),
		"seed-negative-count": []byte("SNAP -3\n"),
		"seed-absurd-count":   []byte("MULTI 1099511627776\n"),
		"seed-short-multi":    []byte("MULTI 3\nITEM 7 1 1 1\n"),
	}, nil
}

// writeCorpus writes each entry in the `go test fuzz v1` single-[]byte
// encoding the targets share.
func writeCorpus(dir string, entries map[string][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range entries {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", filepath.Join(dir, name), len(data))
	}
	return nil
}
