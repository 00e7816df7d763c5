package cache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Disk is the persistent tier of a two-level Store: a sharded on-disk map
// from canonical cache keys to encoded values that any number of
// processes can mount on one shared directory. It is designed around two
// invariants:
//
//   - Writes are atomic and lock-free: an entry is written to a unique
//     temp file in its shard directory and renamed into place, so readers
//     (in this or any other process) only ever observe absent or complete
//     files, and concurrent writers of the same key — replicas computing
//     the same design point — settle by last-rename-wins with identical
//     content.
//   - Corruption is a miss, never an error: a truncated, garbled or
//     wrong-key entry (crash mid-write, disk fault, copied file) fails
//     its checksum and is deleted and recomputed by the caller. No entry
//     is trusted without verifying the embedded key and payload digest.
//
// Eviction to the byte budget is cooperative across processes: a sweep
// scans the directory, reconciles accounting with the filesystem, and
// removes oldest-first under an O_EXCL lock file so exactly one replica
// compacts at a time (a stale lock from a crashed evictor is stolen
// after lockMaxAge).
type Disk struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries int
	bytes   int64
	stats   DiskStats
}

// DiskStats is a snapshot of disk-tier activity counters.
type DiskStats struct {
	// Reads counts entries served (verified) from disk.
	Reads uint64 `json:"reads"`
	// Writes counts entries persisted to disk.
	Writes uint64 `json:"writes"`
	// Misses counts lookups of absent entries.
	Misses uint64 `json:"misses"`
	// Corrupt counts entries that failed verification (truncated, garbled,
	// wrong key) and were dropped for recomputation.
	Corrupt uint64 `json:"corrupt"`
	// WriteErrors counts failed persists; the value stays usable in
	// memory, the entry is simply not shared.
	WriteErrors uint64 `json:"write_errors"`
	// Evictions counts entries removed by the byte-budget sweep.
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes are this process's accounting of the directory
	// (reconciled with the filesystem on every eviction sweep, so they
	// drift only transiently when several replicas share the directory).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MaxBytes echoes the configured budget (0 = unbounded).
	MaxBytes int64 `json:"max_bytes,omitempty"`
}

const (
	// diskMagic versions the entry format; bump on any layout change so
	// old entries read as corrupt (recomputed) instead of wrong.
	diskMagic = "qcdisk1"
	// tempPrefix marks in-flight writes; readers never open these.
	tempPrefix = ".tmp-"
	// tempMaxAge is how old an orphaned temp file (writer crashed between
	// create and rename) must be before a sweep reclaims it. Young temps
	// may belong to a live writer in another process.
	tempMaxAge = 10 * time.Minute
	// lockMaxAge is how old the eviction lock may be before another
	// process decides its holder crashed and steals it.
	lockMaxAge = 5 * time.Minute
	// lockName is the eviction lock file, at the directory root.
	lockName = "evict.lock"
)

// OpenDisk mounts (creating if needed) a persistent tier on dir, holding
// at most maxBytes of entries (0 or negative = unbounded). The directory
// may be shared with other live processes; opening scans it once to seed
// the local size accounting and reclaim stale temp files.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("cache: disk: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk: %w", err)
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	d := &Disk{dir: dir, maxBytes: maxBytes}
	entries, bytes := d.scan(time.Now())
	d.mu.Lock()
	d.entries, d.bytes = entries, bytes
	d.mu.Unlock()
	return d, nil
}

// Dir returns the mounted directory.
func (d *Disk) Dir() string { return d.dir }

// MaxBytes returns the configured byte budget (0 = unbounded).
func (d *Disk) MaxBytes() int64 { return d.maxBytes }

// path shards an entry by the first two characters of its key, keeping
// any single directory small even at millions of entries. Keys are
// canonical content hashes (lowercase hex); anything else — or anything
// too short to shard — is re-hashed into that alphabet so a hostile or
// malformed key can never escape the cache directory.
func (d *Disk) path(key string) string {
	name := entryName(key)
	return filepath.Join(d.dir, name[:2], name)
}

// entryName maps a cache key to its on-disk file name: the key itself
// when it is already a canonical hex hash, otherwise its SHA-256.
func entryName(key string) string {
	if safeKey(key) {
		return key
	}
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func safeKey(key string) bool {
	if len(key) < 4 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Read returns the verified payload stored under key, or false on a miss.
// Any verification failure (bad magic, wrong key, short payload, digest
// mismatch) deletes the entry and reports a miss, so a corrupted file is
// recomputed and rewritten rather than surfaced as an error.
func (d *Disk) Read(key string) ([]byte, bool) {
	p := d.path(key)
	f, err := os.Open(p)
	if err != nil {
		d.count(func(s *DiskStats) { s.Misses++ })
		return nil, false
	}
	payload, err := verifyEntry(f, entryName(key))
	f.Close()
	if err != nil {
		d.dropCorrupt(p)
		return nil, false
	}
	d.count(func(s *DiskStats) { s.Reads++ })
	return payload, true
}

// verifyEntry parses and checks one entry stream against the key it is
// expected to hold.
func verifyEntry(r io.Reader, key string) ([]byte, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("cache: disk: short header: %w", err)
	}
	fields := bytes.Fields([]byte(header))
	if len(fields) != 4 || string(fields[0]) != diskMagic {
		return nil, errors.New("cache: disk: bad header")
	}
	if string(fields[1]) != key {
		return nil, errors.New("cache: disk: entry holds a different key")
	}
	n, err := strconv.ParseInt(string(fields[3]), 10, 64)
	if err != nil || n < 0 {
		return nil, errors.New("cache: disk: bad length")
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("cache: disk: truncated payload: %w", err)
	}
	// Trailing junk past the declared length means the file is not what
	// the writer produced.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errors.New("cache: disk: trailing bytes")
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(fields[2]) {
		return nil, errors.New("cache: disk: payload digest mismatch")
	}
	return payload, nil
}

// dropCorrupt removes a failed entry (best-effort) and counts it.
func (d *Disk) dropCorrupt(path string) {
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	removed := os.Remove(path) == nil
	d.mu.Lock()
	d.stats.Corrupt++
	if removed {
		d.entries--
		d.bytes -= size
		d.clampLocked()
	}
	d.mu.Unlock()
}

// Write persists payload under key: temp file in the shard directory,
// then an atomic rename into place. Failures are counted but deliberately
// not returned — the caller already holds the computed value, and the
// next reader will simply recompute. A write that pushes the directory
// past the byte budget triggers a cooperative eviction sweep.
func (d *Disk) Write(key string, payload []byte) {
	p := d.path(key)
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %s %d\n", diskMagic, filepath.Base(p), hex.EncodeToString(sum[:]), len(payload))

	f, err := createTemp(filepath.Dir(p))
	if err != nil {
		d.count(func(s *DiskStats) { s.WriteErrors++ })
		return
	}
	tmp := f.Name()
	_, werr := f.WriteString(header)
	if werr == nil {
		_, werr = f.Write(payload)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		d.count(func(s *DiskStats) { s.WriteErrors++ })
		return
	}
	// Size delta accounting must know whether the rename replaced an
	// existing entry (a concurrent rewrite of the same key).
	var prev int64
	replaced := false
	if fi, err := os.Stat(p); err == nil {
		prev, replaced = fi.Size(), true
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		d.count(func(s *DiskStats) { s.WriteErrors++ })
		return
	}
	size := int64(len(header) + len(payload))
	d.mu.Lock()
	d.stats.Writes++
	if replaced {
		d.bytes += size - prev
	} else {
		d.entries++
		d.bytes += size
	}
	over := d.maxBytes > 0 && d.bytes > d.maxBytes
	d.mu.Unlock()
	if over {
		d.evict()
	}
}

// createTemp opens a fresh temp file in a shard directory. The directory
// itself records that the shard exists: only a create that fails because
// it is missing (the shard's first write, or a shard removed from outside)
// makes it, then retries once, so a write to an existing shard costs no
// extra system call.
//
// CreateTemp's O_EXCL unique name is the cross-process safety: two
// replicas writing the same key never touch the same temp file, and
// whichever renames last wins with byte-identical content.
func createTemp(shard string) (*os.File, error) {
	f, err := os.CreateTemp(shard, tempPrefix+"*")
	if !errors.Is(err, fs.ErrNotExist) {
		return f, err
	}
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return nil, err
	}
	return os.CreateTemp(shard, tempPrefix+"*")
}

// count applies a counter update under the lock.
func (d *Disk) count(f func(*DiskStats)) {
	d.mu.Lock()
	f(&d.stats)
	d.mu.Unlock()
}

// clampLocked keeps accounting sane when deletions race across processes.
func (d *Disk) clampLocked() {
	if d.entries < 0 {
		d.entries = 0
	}
	if d.bytes < 0 {
		d.bytes = 0
	}
}

// Stats returns a snapshot of the disk counters and accounting.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Entries = d.entries
	s.Bytes = d.bytes
	s.MaxBytes = d.maxBytes
	return s
}

// diskEntry is one file found by a directory scan.
type diskEntry struct {
	path  string
	size  int64
	mtime time.Time
}

// scan walks the shard directories, reclaiming temp files older than
// tempMaxAge, and returns the live entry count and byte total.
func (d *Disk) scan(now time.Time) (int, int64) {
	entries, bytes := 0, int64(0)
	d.walk(now, func(e diskEntry) {
		entries++
		bytes += e.size
	})
	return entries, bytes
}

// walk visits every live entry; stale temps are removed along the way.
func (d *Disk) walk(now time.Time, visit func(diskEntry)) {
	shards, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(d.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			p := filepath.Join(d.dir, sh.Name(), f.Name())
			fi, err := f.Info()
			if err != nil {
				continue
			}
			if len(f.Name()) >= len(tempPrefix) && f.Name()[:len(tempPrefix)] == tempPrefix {
				if now.Sub(fi.ModTime()) > tempMaxAge {
					os.Remove(p)
				}
				continue
			}
			visit(diskEntry{path: p, size: fi.Size(), mtime: fi.ModTime()})
		}
	}
}

// evict compacts the directory to the byte budget, oldest entries first.
// At most one process evicts at a time: the sweep runs under an O_EXCL
// lock file, and a lock older than lockMaxAge is presumed abandoned by a
// crashed evictor and stolen. Losing the lock race just means another
// replica is already compacting, so this writer returns immediately.
func (d *Disk) evict() {
	lock := filepath.Join(d.dir, lockName)
	if !d.tryLock(lock) {
		return
	}
	defer os.Remove(lock)

	now := time.Now()
	var live []diskEntry
	total := int64(0)
	d.walk(now, func(e diskEntry) {
		live = append(live, e)
		total += e.size
	})
	sort.Slice(live, func(i, j int) bool { return live[i].mtime.Before(live[j].mtime) })

	evicted := 0
	for _, e := range live {
		if total <= d.maxBytes {
			break
		}
		// A racing replica may have removed the entry already; either way
		// it no longer occupies budget.
		if err := os.Remove(e.path); err == nil || errors.Is(err, fs.ErrNotExist) {
			total -= e.size
			evicted++
		}
	}
	d.mu.Lock()
	d.stats.Evictions += uint64(evicted)
	// The scan is ground truth: reconcile accounting drift accumulated
	// from other replicas' writes and removals.
	d.entries = len(live) - evicted
	d.bytes = total
	d.clampLocked()
	d.mu.Unlock()
}

// tryLock acquires the eviction lock, stealing it if stale.
func (d *Disk) tryLock(lock string) bool {
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return true
		}
		fi, serr := os.Stat(lock)
		if serr != nil || time.Since(fi.ModTime()) <= lockMaxAge {
			return false
		}
		os.Remove(lock) // stale: holder crashed; retry the O_EXCL create
	}
	return false
}
