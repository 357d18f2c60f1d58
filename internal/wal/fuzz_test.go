package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frame is one record as Append writes it: length, CRC-32C, payload.
func frame(payload []byte) []byte {
	buf := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// FuzzReadRecords feeds arbitrary bytes to the segment reader as a segment
// file. It never panics. With truncateTail it returns well-framed records
// that frame back into a prefix of the input, and leaves the file at
// exactly that prefix, so a second read returns the same records with
// nothing torn. Without it, any byte the framing cannot account for is an
// error, never a short read.
func FuzzReadRecords(f *testing.F) {
	path := filepath.Join(f.TempDir(), segName(1)) // one input at a time per process
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		strict, _, strictErr := readRecords(path, false)

		records, torn, err := readRecords(path, true)
		if err != nil {
			t.Fatalf("tail read: %v", err)
		}
		var framed []byte
		for _, r := range records {
			framed = append(framed, frame(r)...)
		}
		if !bytes.Equal(framed, data[:len(framed)]) {
			t.Fatalf("%d records do not frame back into a prefix of the segment", len(records))
		}
		if int64(len(framed))+torn != int64(len(data)) {
			t.Fatalf("%d framed + %d torn bytes, segment has %d", len(framed), torn, len(data))
		}
		if left, err := os.ReadFile(path); err != nil || !bytes.Equal(left, framed) {
			t.Fatalf("file left at %d bytes (%v), want the %d-byte prefix", len(left), err, len(framed))
		}
		again, torn2, err := readRecords(path, true)
		if err != nil || torn2 != 0 || len(again) != len(records) {
			t.Fatalf("second read: %d records, %d torn, %v; want %d, 0, nil", len(again), torn2, err, len(records))
		}

		if torn == 0 {
			if strictErr != nil || len(strict) != len(records) {
				t.Fatalf("clean segment: strict read %d records, %v; want %d", len(strict), strictErr, len(records))
			}
		} else if strictErr == nil {
			t.Fatalf("strict read returned %d records with %d bytes it could not frame", len(strict), torn)
		}
	})
}
