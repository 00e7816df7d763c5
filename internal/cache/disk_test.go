package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// diskKey builds a canonical-looking (hex) key, as the toolflow produces.
func diskKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := diskKey("point-a")
	if _, ok := d.Read(key); ok {
		t.Fatal("read before write must miss")
	}
	d.Write(key, []byte(`{"v":1}`))
	got, ok := d.Read(key)
	if !ok || string(got) != `{"v":1}` {
		t.Fatalf("read = %q, %v", got, ok)
	}
	st := d.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := diskKey("persisted")
	d1.Write(key, []byte("payload"))

	// A fresh Disk on the same directory — a restarted replica — sees the
	// entry and accounts for it.
	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Read(key); !ok || string(got) != "payload" {
		t.Fatalf("reopened read = %q, %v", got, ok)
	}
	if st := d2.Stats(); st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("reopened accounting = %+v", st)
	}
}

// entryPath digs out the on-disk file for a key, via the same sharding.
func entryPath(d *Disk, key string) string { return d.path(key) }

func TestDiskCorruptionIsAMiss(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbled_payload", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty_file", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad_magic", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not-an-entry\njunk"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"trailing_junk", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString("extra"); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := OpenDisk(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			key := diskKey("victim-" + tc.name)
			d.Write(key, []byte(`{"ok":true}`))
			tc.corrupt(t, entryPath(d, key))

			if _, ok := d.Read(key); ok {
				t.Fatal("corrupted entry must read as a miss")
			}
			if st := d.Stats(); st.Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
			}
			if _, err := os.Stat(entryPath(d, key)); !os.IsNotExist(err) {
				t.Error("corrupted entry must be deleted for recomputation")
			}

			// Recompute-and-rewrite restores the entry.
			d.Write(key, []byte(`{"ok":true}`))
			if got, ok := d.Read(key); !ok || string(got) != `{"ok":true}` {
				t.Fatalf("rewrite after corruption: read = %q, %v", got, ok)
			}
		})
	}
}

func TestDiskWrongKeyContentIsAMiss(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	keyA, keyB := diskKey("a"), diskKey("b")
	d.Write(keyA, []byte("content-of-a"))
	// Simulate an operator copying/renaming an entry to the wrong slot:
	// the file verifies byte-wise but embeds keyA.
	pathB := entryPath(d, keyB)
	if err := os.MkdirAll(filepath.Dir(pathB), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(entryPath(d, keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathB, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Read(keyB); ok {
		t.Fatal("entry holding a different key must read as a miss")
	}
	if got, ok := d.Read(keyA); !ok || string(got) != "content-of-a" {
		t.Fatalf("original entry damaged: %q, %v", got, ok)
	}
}

func TestDiskLeftoverTempFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := diskKey("real")
	d.Write(key, []byte("value"))
	shard := filepath.Dir(entryPath(d, key))

	// A writer crashed mid-write: a partial temp file is left behind.
	stale := filepath.Join(shard, tempPrefix+"crashed")
	if err := os.WriteFile(stale, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Temps are invisible to reads and never counted as entries.
	if got, ok := d.Read(key); !ok || string(got) != "value" {
		t.Fatalf("read near temp = %q, %v", got, ok)
	}
	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.Entries != 1 {
		t.Errorf("temp file counted as entry: %+v", st)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatal("a fresh temp may belong to a live writer and must survive")
	}

	// Once older than tempMaxAge it is reclaimed by the next open.
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file must be reclaimed on open")
	}
}

func TestDiskEvictionToBudget(t *testing.T) {
	dir := t.TempDir()
	// Each entry is ~100 bytes of payload plus a ~140-byte header; a
	// 1200-byte budget holds only a few.
	d, err := OpenDisk(dir, 1200)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(strings.Repeat("x", 100))
	for i := 0; i < 10; i++ {
		key := diskKey(fmt.Sprintf("entry-%d", i))
		d.Write(key, payload)
		// Distinct mtimes make oldest-first deterministic on coarse-grained
		// filesystems.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		os.Chtimes(entryPath(d, key), old, old)
	}
	// One more write triggers a sweep that must land under budget.
	d.Write(diskKey("entry-final"), payload)
	st := d.Stats()
	if st.Bytes > 1200 {
		t.Errorf("bytes = %d, want <= budget 1200", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	// The newest write survives; the oldest entries went first.
	if _, ok := d.Read(diskKey("entry-final")); !ok {
		t.Error("newest entry evicted")
	}
	if _, ok := d.Read(diskKey("entry-0")); ok {
		t.Error("oldest entry survived a full-budget sweep")
	}
}

func TestDiskEvictionLockBlocksSecondSweeper(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh (non-stale) lock held by "another process" suppresses the
	// sweep entirely: the write itself still lands.
	lock := filepath.Join(dir, lockName)
	if err := os.WriteFile(lock, []byte("held\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	key := diskKey("under-held-lock")
	d.Write(key, []byte("v"))
	if _, ok := d.Read(key); !ok {
		t.Fatal("write must land even when eviction is locked out")
	}
	if st := d.Stats(); st.Evictions != 0 {
		t.Errorf("evictions = %d under a held lock", st.Evictions)
	}

	// A stale lock is stolen and the sweep proceeds.
	old := time.Now().Add(-2 * lockMaxAge)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	d.Write(diskKey("steals-lock"), []byte("v"))
	if st := d.Stats(); st.Evictions == 0 {
		t.Error("stale lock was not stolen")
	}
}

func TestDiskRejectsHostileKeys(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(dir, "..", "escape")
	for _, key := range []string{"../../escape", "..", "a/b", "", "short", strings.Repeat("f", 200)} {
		d.Write(key, []byte("v"))
		if got, ok := d.Read(key); !ok || string(got) != "v" {
			t.Errorf("key %q: read = %q, %v", key, got, ok)
		}
	}
	if _, err := os.Stat(outside); !os.IsNotExist(err) {
		t.Fatal("a hostile key escaped the cache directory")
	}
}

func TestOpenDiskRejectsEmptyDir(t *testing.T) {
	if _, err := OpenDisk("", 0); err == nil {
		t.Fatal("empty dir must be rejected")
	}
}

// TestDiskRecreatesRemovedShard removes a shard directory from outside
// between two writes to it: the second write must re-create the shard and
// land, not count a write error.
func TestDiskRecreatesRemovedShard(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, second := diskKey("shard-a"), diskKey("shard-b")
	// Both keys must share a shard; pick a second key that does.
	for i := 0; second[:2] != first[:2]; i++ {
		second = diskKey(fmt.Sprintf("shard-b%d", i))
	}
	d.Write(first, []byte("one"))
	if err := os.RemoveAll(filepath.Join(dir, first[:2])); err != nil {
		t.Fatal(err)
	}
	d.Write(second, []byte("two"))
	if got, ok := d.Read(second); !ok || string(got) != "two" {
		t.Fatalf("read after shard removal = %q, %v", got, ok)
	}
	if st := d.Stats(); st.WriteErrors != 0 || st.Writes != 2 {
		t.Errorf("stats = %+v, want 2 writes and no write errors", st)
	}
}
