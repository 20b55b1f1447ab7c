package cas

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/stage"
)

// The store must satisfy the stage.Backend contract it is built for.
var _ stage.Backend = (*Store)(nil)

const testKey = stage.Key("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")

func openStore(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Config{}); err == nil {
		t.Fatal("Open(\"\") accepted")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	payload := []byte("artifact bytes")
	s.Put("fabricate", testKey, payload)
	got, ok := s.Get("fabricate", testKey)
	if !ok {
		t.Fatal("fresh write missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: %q != %q", got, payload)
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes <= int64(len(payload)) {
		t.Fatalf("stats after one write: %+v", st)
	}
	// A different key or stage name must miss without touching the hit.
	if _, ok := s.Get("fabricate", testKey+"x"); ok {
		t.Error("unknown key hit")
	}
	if _, ok := s.Get("faults", testKey); ok {
		t.Error("unknown stage hit")
	}
}

func TestWritesAreAtomicAndTmpIsCleaned(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	s.Put("fabricate", testKey, []byte("v"))
	tmp := filepath.Join(dir, layoutVersion, "tmp")
	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("tmp dir not empty after Put: %d leftovers", len(ents))
	}
	// A crashed writer leaves an orphaned temp file; the next Open
	// removes it and still serves the committed artifact.
	if err := os.WriteFile(filepath.Join(tmp, "put-crashed"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Config{})
	if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
		t.Fatalf("reopen kept %d temp leftovers", len(ents))
	}
	if _, ok := s2.Get("fabricate", testKey); !ok {
		t.Fatal("committed artifact lost across reopen")
	}
}

func TestWarmReopenInheritsIndex(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	s.Put("fabricate", testKey, []byte("device"))
	s.Put("faults", testKey, []byte("plan"))
	before := s.Stats()

	s2 := openStore(t, dir, Config{})
	after := s2.Stats()
	if after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Fatalf("reopen lost index state: %+v != %+v", after, before)
	}
	for _, name := range []string{"fabricate", "faults"} {
		if _, ok := s2.Get(name, testKey); !ok {
			t.Errorf("%s artifact missed after reopen", name)
		}
	}
}

// corruptions maps each failure mode onto a mutation of a valid
// artifact file. Every one must read as a miss (never an error or a
// wrong payload), be deleted by the failed read, and be repaired by the
// next write.
func TestCorruptionReadsAsMissAndRepairs(t *testing.T) {
	recrc := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[8:], castagnoli))
		return b
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		dropped bool // counted as corrupt (file existed but failed validation)
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, true},
		{"bad-crc", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, true},
		{"wrong-version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[8:10], 99)
			return recrc(b)
		}, true},
		{"trailing-bytes", func(b []byte) []byte { return recrc(append(b, 0xaa)) }, true},
		{"bad-magic", func(b []byte) []byte { copy(b[:4], "NOPE"); return b }, true},
		{"wrong-name", func(b []byte) []byte { return encodeEntry("other", string(testKey), []byte("v")) }, true},
		{"wrong-key", func(b []byte) []byte { return encodeEntry("fabricate", "deadbeef", []byte("v")) }, true},
		{"partial-garbage", func(b []byte) []byte { return []byte("not an artifact") }, true},
		{"empty-file", func(b []byte) []byte { return nil }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, Config{})
			s.Put("fabricate", testKey, []byte("v"))
			path := filepath.Join(dir, layoutVersion, string(relPath("fabricate", testKey)))
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("artifact file missing: %v", err)
			}
			if err := os.WriteFile(path, tc.mutate(append([]byte(nil), valid...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("fabricate", testKey); ok {
				t.Fatalf("corrupt file read as hit: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt file survived the failed read")
			}
			if tc.dropped && s.Stats().CorruptDropped == 0 {
				t.Error("corruption not counted")
			}
			// The next write repairs the entry.
			s.Put("fabricate", testKey, []byte("v2"))
			got, ok := s.Get("fabricate", testKey)
			if !ok || string(got) != "v2" {
				t.Fatalf("write after corruption did not repair: %q, %v", got, ok)
			}
		})
	}
}

func TestGCEvictsLeastRecentlyUsed(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	one := int64(len(encodeEntry("s", string(testKey), payload)))
	s := openStore(t, dir, Config{MaxBytes: 3 * one})

	keyN := func(i byte) stage.Key { return testKey[:62] + stage.Key([]byte{'0' + i, '0' + i}) }
	s.Put("s", keyN(1), payload)
	time.Sleep(2 * time.Millisecond)
	s.Put("s", keyN(2), payload)
	time.Sleep(2 * time.Millisecond)
	s.Put("s", keyN(3), payload)
	time.Sleep(2 * time.Millisecond)
	// Refresh 1's recency so 2 is now the oldest.
	if _, ok := s.Get("s", keyN(1)); !ok {
		t.Fatal("artifact 1 missing before GC")
	}
	time.Sleep(2 * time.Millisecond)
	s.Put("s", keyN(4), payload) // over budget: evicts exactly one, the LRU

	if st := s.Stats(); st.GCEvictions != 1 || st.Bytes > st.MaxBytes {
		t.Fatalf("gc accounting: %+v", st)
	}
	if _, ok := s.Get("s", keyN(2)); ok {
		t.Error("least-recently-used artifact survived GC")
	}
	for _, i := range []byte{1, 3, 4} {
		if _, ok := s.Get("s", keyN(i)); !ok {
			t.Errorf("artifact %d evicted out of LRU order", i)
		}
	}
}

// Recency must survive a restart: a reopened store over the same tree
// GCs by file mtime, not by arrival order in the new process.
func TestGCRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 100)
	one := int64(len(encodeEntry("s", string(testKey), payload)))
	s := openStore(t, dir, Config{})
	keyN := func(i byte) stage.Key { return testKey[:62] + stage.Key([]byte{'0' + i, '0' + i}) }
	s.Put("s", keyN(1), payload)
	s.Put("s", keyN(2), payload)
	// Age artifact 2 far into the past via its file mtime.
	old := time.Now().Add(-time.Hour)
	os.Chtimes(filepath.Join(dir, layoutVersion, relPath("s", keyN(2))), old, old)

	s2 := openStore(t, dir, Config{MaxBytes: 2 * one})
	s2.Put("s", keyN(3), payload) // over budget: must evict the aged 2
	if _, ok := s2.Get("s", keyN(2)); ok {
		t.Error("aged artifact survived GC after reopen")
	}
	if _, ok := s2.Get("s", keyN(1)); !ok {
		t.Error("recent artifact evicted after reopen")
	}
}

func TestHostileNamesStayInsideRoot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	for _, name := range []string{"../escape", "a/b/c", "..", "tmp", "", "weird name!"} {
		s.Put(name, testKey, []byte(name))
		got, ok := s.Get(name, testKey)
		if !ok || string(got) != name {
			t.Errorf("round trip for hostile name %q: %q, %v", name, got, ok)
		}
	}
	// Nothing may have escaped the layout root.
	escaped := false
	filepath.Walk(filepath.Dir(dir), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && !strings.HasPrefix(path, filepath.Join(dir, layoutVersion)) {
			escaped = true
		}
		return nil
	})
	if escaped {
		t.Error("a hostile name wrote outside the layout root")
	}
}

// Two stage names that sanitize onto the same path must never serve
// each other's payloads: the header's exact-name check turns the
// collision into a miss.
func TestSanitizedPathCollisionMisses(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	s.Put("a/b", testKey, []byte("first"))
	s.Put("a_b", testKey, []byte("second")) // same sanitized path
	if got, ok := s.Get("a/b", testKey); ok {
		t.Fatalf("collided read served the wrong artifact: %q", got)
	}
	// The collided read dropped the file, so the survivor misses too —
	// but a rewrite repairs it.
	s.Put("a_b", testKey, []byte("second"))
	if got, ok := s.Get("a_b", testKey); !ok || string(got) != "second" {
		t.Fatalf("repair after collision: %q, %v", got, ok)
	}
}

func TestDirAccessor(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
}

func TestOversizedNameCountsWriteError(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	s.Put(strings.Repeat("n", 1<<16), testKey, []byte("v"))
	if st := s.Stats(); st.WriteErrors != 1 || st.Entries != 0 {
		t.Fatalf("oversized name: %+v", st)
	}
}

// sanitizeComponent returns safe components unchanged and rewrites any
// other rune as one '_'; the reserved names gain a '_' prefix.
func TestSanitizeComponent(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "_"},
		{".", "_."},
		{"..", "_.."},
		{"tmp", "_tmp"},
		{"TMP", "TMP"},
		{"tmpx", "tmpx"},
		{"characterize-xy", "characterize-xy"},
		{string(testKey), string(testKey)},
		{"a_b.C-9", "a_b.C-9"},
		{"a/b", "a_b"},
		{"../x", ".._x"},
		{"a b\x00c", "a_b_c"},
		{"héllo", "h_llo"},
		{"日本", "__"},
		{"\xff\xfe", "__"},
		{"t\xffmp", "t_mp"},
		{"/", "_"},
	} {
		if got := sanitizeComponent(tc.in); got != tc.want {
			t.Errorf("sanitizeComponent(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
