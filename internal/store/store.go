// Package store is the content-addressed, on-disk artifact store: the L2
// layer under the session artifact cache (sweep.Artifacts, which reads
// through memory, then this store, then computes) that gives sessions
// warm starts across process restarts and lets independent processes
// rendezvous on shared artifacts. The store deals in opaque payloads; the
// artifact codecs live with the cache. Entries are keyed by a stable hash of the
// artifact's fully-resolved spec (workload encoding, seed/scale/windows,
// machine signature, artifact kind — the caller renders the spec string,
// the store hashes it), writes are crash-safe (temp file + fsync + rename),
// reads verify a recorded content hash and treat any corruption as a miss
// (quarantine + recompute, never a wrong answer), and a size-budget GC
// prunes least-recently-used entries. Artifacts regenerate
// deterministically, so losing an entry — eviction, corruption, or a
// wiped directory — costs time, not correctness.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// File layout: <dir>/<key[:2]>/<key>.art where key = hex(sha256(spec)).
//
//	magic "ADS1" | specLen u32 | spec bytes | payloadLen u64 |
//	sha256(payload) 32 bytes | payload
//
// The spec travels in the header so a hash collision (or a caller bug that
// derives one key from two specs) is detected on read instead of silently
// serving the wrong artifact, and so `strings <file>` identifies an entry
// during debugging. The payload digest is the corruption check: a
// truncated or bit-flipped file fails verification and is quarantined.

const (
	fileMagic  = "ADS1"
	fileSuffix = ".art"
	// quarantineSuffix marks a file that failed verification. Quarantined
	// files are renamed, not deleted, so a corruption burst stays
	// diagnosable; GC removes them like any other entry.
	quarantineSuffix = ".bad"
	// tmpInfix marks in-progress writes ("<key>.art.tmp-*"). A crash
	// between create and rename leaves one behind; it is never read as an
	// entry and GC sweeps it once stale.
	tmpInfix = fileSuffix + ".tmp-"
	// staleTmpAge is how old an orphaned temp file must be before GC
	// removes it — old enough that no live writer still owns it.
	staleTmpAge = 10 * time.Minute
	// maxSpecLen bounds the header's spec field on read, so a corrupt
	// length cannot demand an absurd allocation.
	maxSpecLen = 1 << 20
)

// Stats is a snapshot of the store's counters. Hits, Misses, Writes,
// VerifyFailures, and GCEvictions are monotonic over the store's lifetime
// in this process; Entries and Bytes describe the resident set (best
// effort when several processes share one directory). The JSON tags are
// the serving wire format (cmd/addict-serve exposes these via expvar, the
// Engine via CacheStats).
type Stats struct {
	// Hits counts reads that returned a verified payload.
	Hits uint64 `json:"hits"`
	// Misses counts reads that found no entry (the caller computes).
	Misses uint64 `json:"misses"`
	// Writes counts entries successfully persisted.
	Writes uint64 `json:"writes"`
	// VerifyFailures counts reads that found an entry but failed
	// verification (bad magic, spec mismatch, truncation, digest mismatch,
	// or undecodable payload) — each one quarantined and reported as a
	// miss, so a failure here never becomes a wrong answer.
	VerifyFailures uint64 `json:"verify_failures"`
	// GCEvictions counts entries removed by the size-budget GC.
	GCEvictions uint64 `json:"gc_evictions"`
	// WriteErrors counts failed persists (full disk, permissions). A store
	// that cannot write still serves what it holds.
	WriteErrors uint64 `json:"write_errors"`
	// Entries and Bytes describe the resident entry set.
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Store is a content-addressed artifact store over one directory. Safe for
// concurrent use within a process; across processes, writes stay safe
// (atomic renames of identical deterministic content). A budgeted store
// rescans the directory on every Put before enforcing the budget, so the
// budget holds even when several processes write the same directory; an
// unbounded store's size index is best effort until the next GC walk.
type Store struct {
	dir    string
	budget int64 // bytes; <= 0 = unbounded

	mu    sync.Mutex
	sizes map[string]int64 // key -> file size, the resident index
	used  int64

	hits, misses, writes uint64
	verifyFailures       uint64
	gcEvictions          uint64
	writeErrors          uint64
}

// Open prepares a store over dir (created if missing) with a size budget
// in bytes (<= 0 = unbounded) and indexes the entries already present — a
// restart resumes with the previous run's artifacts warm.
func Open(dir string, budget int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, budget: budget, sizes: make(map[string]int64)}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rescanLocked()
	s.gcLocked()
	return s, nil
}

// Key derives the on-disk key for a fully-resolved spec string: the
// content address every process computing the same artifact agrees on.
func Key(spec string) string {
	sum := sha256.Sum256([]byte(spec))
	return hex.EncodeToString(sum[:])
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:           s.hits,
		Misses:         s.misses,
		Writes:         s.writes,
		VerifyFailures: s.verifyFailures,
		GCEvictions:    s.gcEvictions,
		WriteErrors:    s.writeErrors,
		Entries:        int64(len(s.sizes)),
		Bytes:          s.used,
	}
}

// path returns the entry file for a key, and its parent directory.
func (s *Store) path(key string) (dir, file string) {
	dir = filepath.Join(s.dir, key[:2])
	return dir, filepath.Join(dir, key+fileSuffix)
}

// Get returns the verified payload stored under spec, or (nil, false) on a
// miss. A present-but-unverifiable entry — truncated, bit-flipped, wrong
// spec under the hash — is quarantined and reported as a miss, so the
// caller recomputes instead of decoding garbage.
func (s *Store) Get(spec string) ([]byte, bool) {
	key := Key(spec)
	_, file := s.path(key)
	data, err := os.ReadFile(file)
	if err != nil {
		s.count(func() { s.misses++ })
		return nil, false
	}
	payload, verr := verify(data, spec)
	if verr != nil {
		s.quarantine(key, file)
		return nil, false
	}
	s.count(func() { s.hits++ })
	// Touch for the GC's recency order; best effort (a read-only mirror
	// still serves).
	now := time.Now()
	_ = os.Chtimes(file, now, now)
	return payload, true
}

// verify parses an entry file and returns its payload, or an error naming
// what failed.
func verify(data []byte, spec string) ([]byte, error) {
	if len(data) < len(fileMagic)+4 || string(data[:4]) != fileMagic {
		return nil, fmt.Errorf("bad magic")
	}
	rest := data[4:]
	specLen := binary.LittleEndian.Uint32(rest[:4])
	if specLen > maxSpecLen || len(rest) < 4+int(specLen)+8+sha256.Size {
		return nil, fmt.Errorf("truncated header")
	}
	rest = rest[4:]
	if string(rest[:specLen]) != spec {
		return nil, fmt.Errorf("spec mismatch")
	}
	rest = rest[specLen:]
	payloadLen := binary.LittleEndian.Uint64(rest[:8])
	rest = rest[8:]
	digest := rest[:sha256.Size]
	payload := rest[sha256.Size:]
	if uint64(len(payload)) != payloadLen {
		return nil, fmt.Errorf("truncated payload: have %d want %d", len(payload), payloadLen)
	}
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(digest) {
		return nil, fmt.Errorf("content digest mismatch")
	}
	return payload, nil
}

// Put persists a payload under spec: write to a temp file in the entry's
// directory, fsync, atomically rename into place, then GC down to the
// budget. Persist failures are counted, not returned — the value the
// caller computed is still correct, the store just could not keep it.
func (s *Store) Put(spec string, payload []byte) {
	key := Key(spec)
	dir, file := s.path(key)
	if err := s.write(dir, file, spec, payload); err != nil {
		s.count(func() { s.writeErrors++ })
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	size := int64(entrySize(spec, payload))
	if prev, ok := s.sizes[key]; ok {
		s.used -= prev
	}
	s.sizes[key] = size
	s.used += size
	s.writes++
	// Under a size budget the directory, not this handle's index, is the
	// truth: other processes sharing the store (distributed sweep workers
	// rendezvousing on one directory) write entries this index has never
	// seen, and judging the budget against the local view alone lets N
	// writers each stay "under budget" while the directory grows to N
	// times it. Rescan before the GC decision so every eviction pass sees
	// the whole resident set. Unbounded stores skip the walk — nothing to
	// enforce.
	if s.budget > 0 {
		s.rescanLocked()
	}
	s.gcLocked()
}

func entrySize(spec string, payload []byte) int {
	return len(fileMagic) + 4 + len(spec) + 8 + sha256.Size + len(payload)
}

func (s *Store) write(dir, file, spec string, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(file)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	header := make([]byte, 0, entrySize(spec, nil))
	header = append(header, fileMagic...)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(spec)))
	header = append(header, spec...)
	header = binary.LittleEndian.AppendUint64(header, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	header = append(header, sum[:]...)
	if _, err := tmp.Write(header); err == nil {
		_, err = tmp.Write(payload)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), file); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss; best effort
// (some platforms refuse directory syncs).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// MarkCorrupt quarantines the entry stored under spec — the hook for
// callers whose decode failed after the content digest passed (a codec
// version drift), so the stale encoding is replaced on the next Put
// instead of failing every read.
func (s *Store) MarkCorrupt(spec string) {
	key := Key(spec)
	_, file := s.path(key)
	s.quarantine(key, file)
}

// quarantine renames a failed entry aside and counts the failure.
func (s *Store) quarantine(key, file string) {
	_ = os.Rename(file, file+quarantineSuffix)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.verifyFailures++
	s.misses++
	if size, ok := s.sizes[key]; ok {
		s.used -= size
		delete(s.sizes, key)
	}
}

// count runs a counter mutation under the lock.
func (s *Store) count(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// GC prunes the store to its size budget, oldest entries first, and sweeps
// quarantined files and stale temp files. Runs automatically after every
// Put; exported so deployments can force a sweep.
func (s *Store) GC() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rescanLocked()
	s.gcLocked()
}

// rescanLocked rebuilds the size index from the directory — the source of
// truth when several processes share one store. Caller holds mu.
func (s *Store) rescanLocked() {
	sizes := make(map[string]int64)
	var used int64
	var stale []string
	_ = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		switch {
		case strings.HasSuffix(name, fileSuffix):
			key := strings.TrimSuffix(name, fileSuffix)
			sizes[key] = info.Size()
			used += info.Size()
		case strings.Contains(name, tmpInfix):
			if time.Since(info.ModTime()) > staleTmpAge {
				stale = append(stale, path)
			}
		case strings.HasSuffix(name, quarantineSuffix):
			stale = append(stale, path)
		}
		return nil
	})
	s.sizes, s.used = sizes, used
	for _, p := range stale {
		_ = os.Remove(p)
	}
}

// gcLocked removes oldest entries until the resident bytes fit the budget.
// Caller holds mu.
func (s *Store) gcLocked() {
	if s.budget <= 0 || s.used <= s.budget {
		return
	}
	type entry struct {
		key   string
		size  int64
		mtime time.Time
	}
	var entries []entry
	for key, size := range s.sizes {
		_, file := s.path(key)
		info, err := os.Stat(file)
		if err != nil {
			// Gone already (another process GC'd it); drop from the index.
			s.used -= size
			delete(s.sizes, key)
			continue
		}
		entries = append(entries, entry{key, size, info.ModTime()})
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].key < entries[j].key
	})
	for _, e := range entries {
		if s.used <= s.budget {
			break
		}
		_, file := s.path(e.key)
		if err := os.Remove(file); err != nil && !os.IsNotExist(err) {
			continue
		}
		s.used -= e.size
		delete(s.sizes, e.key)
		s.gcEvictions++
	}
}
