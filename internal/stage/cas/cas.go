// Package cas is the on-disk warm tier of the stage store: a
// content-addressed artifact directory implementing stage.Backend.
//
// Artifacts are addressed by their deterministic stage key (a hex
// SHA-256 of everything the stage consumes), so the address doubles as
// the integrity contract: a key names exactly one artifact value, for
// every process that ever computes it. Files live under a versioned
// layout
//
//	<dir>/v1/<stage>/<key[:2]>/<key>
//
// and are written atomically (temp file in <dir>/v1/tmp + rename), so
// a crash mid-write leaves at worst an orphaned temp file — cleaned at
// the next Open — and never a half-visible artifact. Every file opens
// with a CRC-validated header carrying the format version, stage name
// and key (see header.go); any read anomaly deletes the file and
// reports a miss, never an error, so corruption only ever costs a
// re-execution and the next write repairs the entry.
//
// A byte budget (Config.MaxBytes) is enforced by LRU garbage
// collection over file recency: hits refresh an artifact's mtime, so
// recency survives process restarts, and the oldest artifacts are
// unlinked first when the directory outgrows the budget.
package cas

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/stage"
)

// layoutVersion names the on-disk directory generation; bump it (and
// the header's format version) together on any layout change so old
// trees are simply ignored rather than misread.
const layoutVersion = "v1"

// Config bounds a Store.
type Config struct {
	// MaxBytes caps the total on-disk footprint (file bytes including
	// headers). Past it, least-recently-used artifacts are garbage
	// collected after each write. 0 disables collection.
	MaxBytes int64
}

// fileEnt is the in-memory index row of one artifact file.
type fileEnt struct {
	size int64
	used int64 // unix nanoseconds of last write or hit
}

// Store is an on-disk artifact backend. Safe for concurrent use, and
// safe to share between processes pointed at the same directory: writes
// are atomic renames and readers treat any anomaly as a miss.
type Store struct {
	root string // <dir>/v1
	tmp  string // <dir>/v1/tmp
	max  int64

	mu      sync.Mutex
	entries map[string]*fileEnt // keyed by path relative to root
	bytes   int64

	gcEvictions    int64
	corruptDropped int64
	writeErrors    int64
}

// Open returns a Store over dir, creating the layout if needed. An
// existing tree is indexed by walking it (sizes and mtimes), so a new
// process inherits the previous one's artifacts and their recency;
// orphaned temp files from a crashed writer are removed.
func Open(dir string, cfg Config) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cas: empty directory")
	}
	root := filepath.Join(dir, layoutVersion)
	tmp := filepath.Join(root, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := &Store{
		root:    root,
		tmp:     tmp,
		max:     cfg.MaxBytes,
		entries: make(map[string]*fileEnt),
	}
	// Clean crashed writers' leftovers, then index the tree.
	if leftovers, err := os.ReadDir(tmp); err == nil {
		for _, f := range leftovers {
			os.Remove(filepath.Join(tmp, f.Name()))
		}
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // unreadable subtrees are treated as absent
		}
		if strings.HasPrefix(path, tmp+string(filepath.Separator)) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return nil
		}
		s.entries[rel] = &fileEnt{size: info.Size(), used: info.ModTime().UnixNano()}
		s.bytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cas: index %s: %w", root, err)
	}
	return s, nil
}

// Dir returns the store's root directory (the one passed to Open).
func (s *Store) Dir() string { return filepath.Dir(s.root) }

// sanitizeComponent maps an arbitrary stage name or key onto a safe
// path component. Collisions are harmless: the file header carries the
// exact name and key, so a collided read fails validation and misses.
// Stage names and hex keys are safe already and come back unchanged,
// without a copy.
func sanitizeComponent(c string) string {
	if c == "" {
		return "_"
	}
	out := c
	for i := 0; i < len(c); i++ {
		if !safeByte(c[i]) {
			out = rewriteComponent(c)
			break
		}
	}
	if out == "." || out == ".." || out == "tmp" {
		return "_" + out
	}
	return out
}

// safeByte reports whether b may appear in a path component as is.
func safeByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '-' || b == '_' || b == '.'
}

// rewriteComponent replaces every rune of c that is not a safe byte
// with one '_'.
func rewriteComponent(c string) string {
	var b strings.Builder
	for _, r := range c {
		if r < 0x80 && safeByte(byte(r)) {
			b.WriteByte(byte(r))
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// relPath maps (name, key) onto the artifact's path relative to root,
// with a two-character fan-out level so one stage's artifacts do not
// pile into a single directory.
func relPath(name string, key stage.Key) string {
	k := sanitizeComponent(string(key))
	fan := "__"
	if len(k) >= 2 {
		fan = k[:2]
	}
	return filepath.Join(sanitizeComponent(name), fan, k)
}

// Get implements stage.Backend: it returns the stored payload of
// (name, key) or a miss. A file that exists but fails validation is
// deleted (corruption never survives a read) and reported as a miss; a
// valid hit refreshes the artifact's recency on disk and in the index.
func (s *Store) Get(name string, key stage.Key) ([]byte, bool) {
	rel := relPath(name, key)
	path := filepath.Join(s.root, rel)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	payload, err := decodeEntry(data, name, string(key))
	if err != nil {
		s.drop(rel, path)
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort: recency survives restarts
	s.mu.Lock()
	if e, ok := s.entries[rel]; ok {
		e.used = now.UnixNano()
	}
	s.mu.Unlock()
	return payload, true
}

// drop removes a failed-validation file and its index row.
func (s *Store) drop(rel, path string) {
	os.Remove(path)
	s.mu.Lock()
	if e, ok := s.entries[rel]; ok {
		s.bytes -= e.size
		delete(s.entries, rel)
	}
	s.corruptDropped++
	s.mu.Unlock()
}

// Put implements stage.Backend: it stores the payload of (name, key)
// atomically and garbage-collects past the byte budget. Best-effort by
// contract — every failure path only increments WriteErrors, because a
// lost write costs one future re-execution and nothing else.
func (s *Store) Put(name string, key stage.Key, data []byte) {
	if len(name) > math.MaxUint16 || len(key) > math.MaxUint16 {
		s.countWriteError()
		return
	}
	rel := relPath(name, key)
	path := filepath.Join(s.root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.countWriteError()
		return
	}
	f, err := os.CreateTemp(s.tmp, "put-*")
	if err != nil {
		s.countWriteError()
		return
	}
	blob := encodeEntry(name, string(key), data)
	_, werr := f.Write(blob)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(f.Name())
		s.countWriteError()
		return
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		s.countWriteError()
		return
	}
	size := int64(len(blob))
	s.mu.Lock()
	if old, ok := s.entries[rel]; ok {
		s.bytes -= old.size
	}
	s.entries[rel] = &fileEnt{size: size, used: time.Now().UnixNano()}
	s.bytes += size
	s.gcLocked()
	s.mu.Unlock()
}

func (s *Store) countWriteError() {
	s.mu.Lock()
	s.writeErrors++
	s.mu.Unlock()
}

// gcLocked unlinks least-recently-used artifacts until the store fits
// its budget. Linear scans per eviction keep the implementation simple;
// artifact counts are small (one file per executed stage variant), so
// the scan cost is negligible next to the file IO. Callers hold s.mu.
func (s *Store) gcLocked() {
	if s.max <= 0 {
		return
	}
	for s.bytes > s.max && len(s.entries) > 0 {
		var oldestRel string
		var oldest *fileEnt
		for rel, e := range s.entries {
			if oldest == nil || e.used < oldest.used {
				oldestRel, oldest = rel, e
			}
		}
		os.Remove(filepath.Join(s.root, oldestRel))
		s.bytes -= oldest.size
		delete(s.entries, oldestRel)
		s.gcEvictions++
	}
}

// Stats implements stage.Backend.
func (s *Store) Stats() stage.BackendStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stage.BackendStats{
		Entries:        len(s.entries),
		Bytes:          s.bytes,
		MaxBytes:       s.max,
		GCEvictions:    s.gcEvictions,
		CorruptDropped: s.corruptDropped,
		WriteErrors:    s.writeErrors,
	}
}
