package blobstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"oceanstore/internal/archive"
	"oceanstore/internal/guid"
)

// frame wraps a payload in a record header with a correct CRC.
func frame(kind byte, payload []byte) []byte {
	rec := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(rec[0:], magic)
	rec[4] = kind
	binary.BigEndian.PutUint32(rec[5:], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[9:], crc32.Checksum(payload, crcTable))
	copy(rec[headerLen:], payload)
	return rec
}

func fuzzFragment(b byte, index int) archive.StoredFragment {
	return archive.StoredFragment{
		Root:  guid.GUID{b, 1, 2},
		Index: index,
		Total: 8,
		Proof: []guid.GUID{{b}, {b, b}},
		Data:  bytes.Repeat([]byte{b}, 3+index),
	}
}

type fragKey struct {
	root  guid.GUID
	index int
}

// referenceRecover is the recovery oracle: it walks the volume bytes
// record by record, accepting a record only if its magic, kind, length
// and CRC-32C all check and its payload decodes, and stops at the first
// that does not.  It returns the length of the valid prefix and the
// fragments that prefix leaves live.
func referenceRecover(vol []byte) (int, map[fragKey]archive.StoredFragment) {
	live := make(map[fragKey]archive.StoredFragment)
	off := 0
	for len(vol)-off >= headerLen {
		hdr := vol[off : off+headerLen]
		plen := int(binary.BigEndian.Uint32(hdr[5:]))
		if binary.BigEndian.Uint32(hdr) != magic || plen > len(vol)-off-headerLen {
			break
		}
		payload := vol[off+headerLen : off+headerLen+plen]
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[9:]) {
			break
		}
		if hdr[4] == kindPut {
			sf, err := decodePut(payload)
			if err != nil {
				break
			}
			live[fragKey{sf.Root, sf.Index}] = sf
		} else if hdr[4] == kindDrop {
			root, idx, err := decodeDrop(payload)
			if err != nil {
				break
			}
			delete(live, fragKey{root, idx})
		} else {
			break
		}
		off += headerLen + plen
	}
	return off, live
}

// checkRecovered compares an opened store against the oracle.
func checkRecovered(t *testing.T, s *Store, path string, want []byte, live map[fragKey]archive.StoredFragment) {
	t.Helper()
	if s.Size() != int64(len(want)) {
		t.Fatalf("recovered %d bytes, oracle's valid prefix is %d", s.Size(), len(want))
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatalf("volume after recovery is not the valid prefix (%d bytes on disk)", len(onDisk))
	}
	held := 0
	s.Scan(func(root guid.GUID, index int) bool {
		held++
		got, ok := s.Get(root, index)
		if !ok {
			t.Fatalf("indexed fragment (%x, %d) unreadable", root[:4], index)
		}
		if w, ok := live[fragKey{root, index}]; !ok || !reflect.DeepEqual(got, w) {
			t.Fatalf("fragment (%x, %d) = %+v, oracle %+v (live %v)", root[:4], index, got, w, ok)
		}
		return true
	})
	if held != len(live) || s.Stats().RecoveredFrags != int64(len(live)) {
		t.Fatalf("recovered %d fragments (stats %d), oracle %d", held, s.Stats().RecoveredFrags, len(live))
	}
}

// FuzzBlobstoreRecover opens a volume holding arbitrary bytes.
// Recovery must not panic, must allocate in proportion to the volume
// (never from a length field it has not checked against the file),
// must keep exactly the CRC-valid record prefix the oracle finds, and
// must reach the same state when it runs again.
func FuzzBlobstoreRecover(f *testing.F) {
	put := frame(kindPut, encodePut(fuzzFragment(7, 2)))
	put2 := frame(kindPut, encodePut(fuzzFragment(9, 0)))
	drop := frame(kindDrop, encodeDrop(fuzzFragment(7, 2).Root, 2))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	badCRC := cat(put, put2)
	badCRC[len(put)+9] ^= 1
	huge := cat(put, put2[:headerLen])
	binary.BigEndian.PutUint32(huge[len(put)+5:], 0xffffffff)
	f.Add([]byte{})
	f.Add(cat(put, put2, drop))
	f.Add(cat(put, put2[:len(put2)-3]))
	f.Add(badCRC)
	f.Add(huge)
	f.Add(cat(put, frame(kindPut, []byte("short")), put2))
	f.Add(cat(put, frame(3, nil)))
	f.Fuzz(func(t *testing.T, vol []byte) {
		path := filepath.Join(t.TempDir(), "vol.log")
		if err := os.WriteFile(path, vol, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(Config{Path: path, DisableAutoCompact: true})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(16*len(vol))+1<<20 {
			t.Fatalf("recovering %d bytes allocated %d", len(vol), alloc)
		}
		n, live := referenceRecover(vol)
		checkRecovered(t, s, path, vol[:n], live)
		if got := s.Stats().TruncatedBytes; got != int64(len(vol)-n) {
			t.Fatalf("truncated %d bytes, want %d", got, len(vol)-n)
		}
		// Recovery is idempotent: in place, and across a reopen.
		if err := s.Recover(false); err != nil {
			t.Fatal(err)
		}
		checkRecovered(t, s, path, vol[:n], live)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Config{Path: path, DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		checkRecovered(t, s2, path, vol[:n], live)
		if got := s2.Stats().TruncatedBytes; got != 0 {
			t.Fatalf("second recovery truncated %d more bytes", got)
		}
	})
}

// FuzzDecodePut checks the put-payload decoder against the format: it
// must accept exactly the payloads whose counts and lengths add up,
// and re-encoding what it accepts must give back the same bytes.
func FuzzDecodePut(f *testing.F) {
	f.Add(encodePut(fuzzFragment(1, 0)))
	f.Add(encodePut(archive.StoredFragment{}))
	f.Add([]byte("too short"))
	over := encodePut(fuzzFragment(2, 1))
	binary.BigEndian.PutUint32(over[guid.Size+8:], 0xffffffff)
	f.Add(over)
	f.Fuzz(func(t *testing.T, payload []byte) {
		in := append([]byte(nil), payload...)
		sf, err := decodePut(payload)
		if valid := wellFormedPut(payload); (err == nil) != valid {
			t.Fatalf("decodePut err = %v, but well-formed = %v", err, valid)
		}
		if err != nil {
			return
		}
		if got := encodePut(sf); !bytes.Equal(got, in) {
			t.Fatalf("re-encoding changed the payload:\n got %x\nwant %x", got, in)
		}
		for i := range payload {
			payload[i] ^= 0xff
		}
		if len(sf.Data) > 0 && !bytes.Equal(encodePut(sf), in) {
			t.Fatal("decoded fragment aliases the payload buffer")
		}
	})
}

// wellFormedPut is the put-payload grammar, checked independently of
// decodePut: root, index, total, proof count, proofs, data length, data.
func wellFormedPut(p []byte) bool {
	const fixed = guid.Size + 12
	if len(p) < fixed {
		return false
	}
	nproof := uint64(binary.BigEndian.Uint32(p[guid.Size+8:]))
	rest := uint64(len(p) - fixed)
	if nproof*guid.Size+4 > rest {
		return false
	}
	dlenAt := fixed + int(nproof)*guid.Size
	return uint64(binary.BigEndian.Uint32(p[dlenAt:])) == rest-nproof*guid.Size-4
}

// FuzzDecodeDrop checks the tombstone decoder: exactly root plus index,
// and a lossless round trip.
func FuzzDecodeDrop(f *testing.F) {
	f.Add(encodeDrop(guid.GUID{1, 2, 3}, 7))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, guid.Size+5))
	f.Fuzz(func(t *testing.T, payload []byte) {
		root, idx, err := decodeDrop(payload)
		if (err == nil) != (len(payload) == guid.Size+4) {
			t.Fatalf("decodeDrop(%d bytes) err = %v", len(payload), err)
		}
		if err == nil && !bytes.Equal(encodeDrop(root, idx), payload) {
			t.Fatal("re-encoding changed the tombstone")
		}
	})
}
