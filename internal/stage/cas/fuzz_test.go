package cas

import (
	"bytes"
	"os"
	"testing"
)

// FuzzCASHeader drives the on-disk header decoder with arbitrary bytes
// (it must never panic and never return a payload longer than its
// input) and, treating the same bytes as a payload, proves the
// encode/decode round trip is exact.
func FuzzCASHeader(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("YTCA"))
	f.Add(encodeEntry("fabricate", string(testKey), []byte("payload")))
	f.Add(encodeEntry("", "", nil))
	trunc := encodeEntry("s", "k", []byte("0123456789"))
	f.Add(trunc[:len(trunc)-3])
	bad := encodeEntry("s", "k", []byte("0123456789"))
	bad[5] ^= 0x01
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, err := decodeEntry(data, "", ""); err == nil {
			if len(payload) > len(data) {
				t.Fatalf("decoded payload (%d bytes) longer than file (%d bytes)", len(payload), len(data))
			}
		}
		// Round trip: any byte string survives encoding as a payload.
		blob := encodeEntry("stage", "key", data)
		payload, err := decodeEntry(blob, "stage", "key")
		if err != nil {
			t.Fatalf("fresh encoding rejected: %v", err)
		}
		if !bytes.Equal(payload, data) {
			t.Fatalf("round trip corrupted payload: %q != %q", payload, data)
		}
		// Name/key verification: the same file must miss for any other
		// identity.
		if _, err := decodeEntry(blob, "other", "key"); err == nil {
			t.Fatal("wrong stage name accepted")
		}
		if _, err := decodeEntry(blob, "stage", "other"); err == nil {
			t.Fatal("wrong artifact key accepted")
		}
	})
}

// FuzzCASGet writes arbitrary bytes at an indexed artifact path under an
// arbitrary recorded size. Get must never panic, and it must serve
// exactly the payload of a valid file and miss on any other one,
// deleting it.
func FuzzCASGet(f *testing.F) {
	valid := encodeEntry("s", string(testKey), []byte("payload"))
	f.Add(valid, int64(len(valid)))
	f.Add(valid, int64(len(valid)-1))
	f.Add(valid, int64(len(valid)+1))
	f.Add(valid, int64(-1))
	f.Add(valid, int64(0))
	f.Add(valid[:len(valid)-1], int64(len(valid)))
	f.Add([]byte(nil), int64(0))
	s, err := Open(f.TempDir(), Config{})
	if err != nil {
		f.Fatal(err)
	}
	path, rel := s.path("s", testKey)
	f.Fuzz(func(t *testing.T, data []byte, size int64) {
		s.Put("s", testKey, []byte("x")) // index the path
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.entries[rel].size = size % (1 << 20) // negative reads as unindexed
		s.mu.Unlock()
		want, werr := decodeEntry(data, "s", string(testKey))
		got, ok := s.Get("s", testKey, []byte("pre"))
		switch {
		case ok != (werr == nil):
			t.Fatalf("Get hit=%v on a file whose validation says %v", ok, werr)
		case ok && string(got) != "pre"+string(want):
			t.Fatalf("Get served %q, want %q", got, "pre"+string(want))
		case !ok:
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("an invalid file survived the read")
			}
		}
	})
}
