package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/freq"
)

// TestCorruptBlockPayloadFailsQuery crafts three uncompressed slots,
// rewrites the middle one's payload with a fresh CRC, so that only the
// sketch decoder can tell, and checks that a range covering it fails
// with freq.ErrCorrupt through Query and QueryInto alike, while ranges
// over its intact neighbours still answer exactly.
func TestCorruptBlockPayloadFailsQuery(t *testing.T) {
	const header, record = 40, 16 // the sketch encoding's header and (item, counter) record
	slots := []map[int64]int64{{1: 5, 2: 7, 3: 9}, {4: 11, 5: 13, 6: 17}, {7: 19, 8: 23}}
	patches := map[string]func(p []byte){
		"duplicate item": func(p []byte) { copy(p[len(p)-record:], p[header:header+8]) },
		"zero counter":   func(p []byte) { binary.LittleEndian.PutUint64(p[header+8:], 0) },
		"negative counter": func(p []byte) {
			binary.LittleEndian.PutUint64(p[header+8:], uint64(0xffff_ffff_ffff_fffb)) // -5
		},
		"counter count disagrees with length": func(p []byte) {
			binary.LittleEndian.PutUint32(p[36:], binary.LittleEndian.Uint32(p[36:])+1)
		},
		"bad magic": func(p []byte) { p[0] ^= 0xff },
	}
	for name, patch := range patches {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open[int64](dir, WithCodec(None{}), WithPartitionDuration(time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range slots {
				start := base.Add(time.Duration(i) * time.Second)
				appendSlot(t, st, start, start.Add(time.Second), w)
			}
			file := filepath.Join(dir, st.parts[0].name)
			b := st.parts[0].blocks[1]
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			payload := data[b.off : b.off+int64(b.encLen)]
			patch(payload)
			binary.LittleEndian.PutUint32(data[b.off-blockHeaderLen+28:], crc32.Checksum(payload, castagnoli))
			if err := os.WriteFile(file, data, 0o644); err != nil {
				t.Fatal(err)
			}

			st, err = Open[int64](dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if blocks := st.Stats().Blocks; blocks != 3 {
				t.Fatalf("the patched block failed the scan: %d blocks, want 3", blocks)
			}
			all := base.Add(3 * time.Second)
			if _, err := st.Query(base, all); !errors.Is(err, freq.ErrCorrupt) {
				t.Fatalf("Query over the corrupt block: %v, want freq.ErrCorrupt", err)
			}
			if _, err := st.QueryInto(nil, base, all); !errors.Is(err, freq.ErrCorrupt) {
				t.Fatalf("QueryInto over the corrupt block: %v, want freq.ErrCorrupt", err)
			}
			for _, i := range []int{0, 2} {
				from := base.Add(time.Duration(i) * time.Second)
				got := queryWeights(t, st, from, from.Add(time.Second), []int64{1, 2, 3, 4, 5, 6, 7, 8})
				if !maps.Equal(got, slots[i]) {
					t.Fatalf("slot %d beside the corrupt block: %v, want %v", i, got, slots[i])
				}
			}
		})
	}
}
