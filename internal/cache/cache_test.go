package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoComputesOncePerKey(t *testing.T) {
	c := New[int](8)
	calls := 0
	get := func(key string) (int, bool) {
		v, err, hit := c.Do(key, func() (int, error) { calls++; return calls, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	if v, hit := get("a"); v != 1 || hit {
		t.Errorf("first lookup = %d hit=%v", v, hit)
	}
	if v, hit := get("a"); v != 1 || !hit {
		t.Errorf("second lookup = %d hit=%v", v, hit)
	}
	if v, hit := get("b"); v != 2 || hit {
		t.Errorf("new key = %d hit=%v", v, hit)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[string](2)
	put := func(k string) {
		c.Do(k, func() (string, error) { return "v" + k, nil })
	}
	put("a")
	put("b")
	c.Get("a") // a is now most recent; b is the LRU tail
	put("c")   // evicts b
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should be evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnboundedCache(t *testing.T) {
	c := New[int](0)
	for i := 0; i < 100; i++ {
		k := fmt.Sprint(i)
		c.Do(k, func() (int, error) { return i, nil })
	}
	if c.Len() != 100 {
		t.Errorf("len = %d, want 100", c.Len())
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestErrorsAreNotStored(t *testing.T) {
	c := New[int](8)
	boom := errors.New("boom")
	calls := 0
	compute := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 42, nil
	}
	if _, err, _ := c.Do("k", compute); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err, hit := c.Do("k", compute)
	if err != nil || v != 42 || hit {
		t.Errorf("retry = (%d, %v, hit=%v)", v, err, hit)
	}
	if st := c.Stats(); st.Errors != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSingleFlightDeduplicates(t *testing.T) {
	c := New[int](8)
	var computes atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := c.Do("shared", func() (int, error) {
				computes.Add(1)
				<-release
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the one compute is in flight, then release it.
	for computes.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("computes = %d, want 1", computes.Load())
	}
	for i, v := range results {
		if v != 7 {
			t.Errorf("result %d = %d", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Shared != n-1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPanicReleasesWaitersAndRetries(t *testing.T) {
	c := New[int](8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic should propagate to the computing caller")
			}
		}()
		c.Do("k", func() (int, error) { panic("kaboom") })
	}()
	v, err, hit := c.Do("k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 || hit {
		t.Errorf("after panic = (%d, %v, hit=%v)", v, err, hit)
	}
}

func TestCacheByteBudget(t *testing.T) {
	// Values are their own size in bytes.
	c := NewBudget[int](0, 100, func(v int) int64 { return int64(v) })

	// A value over the whole budget reaches every caller but is not kept.
	v, err, hit := c.Do("huge", func() (int, error) { return 101, nil })
	if err != nil || v != 101 || hit {
		t.Fatalf("oversized = (%d, %v, hit=%v)", v, err, hit)
	}
	if st := c.Stats(); st.Entries != 0 || c.Bytes() != 0 {
		t.Fatalf("oversized value stored: %+v, bytes %d", st, c.Bytes())
	}

	// Across a mixed-size sequence the stored bytes stay within budget,
	// and the last value always survives its own insert.
	for i, size := range []int{40, 30, 20, 100, 5, 60, 99, 1, 1, 70, 30} {
		key := fmt.Sprint("k", i)
		c.Do(key, func() (int, error) { return size, nil })
		if b := c.Bytes(); b > 100 {
			t.Fatalf("after %s (%d B): %d bytes stored, budget 100", key, size, b)
		}
		if got, ok := c.Get(key); !ok || got != size {
			t.Fatalf("%s evicted by its own insert", key)
		}
	}

	// An errored compute stores nothing and charges no bytes.
	before, entries := c.Bytes(), c.Len()
	if _, err, _ := c.Do("bad", func() (int, error) { return 10, errors.New("boom") }); err == nil {
		t.Fatal("want the compute error")
	}
	if _, ok := c.Get("bad"); ok || c.Bytes() != before || c.Len() != entries {
		t.Errorf("errored compute stored: bytes %d→%d, entries %d→%d", before, c.Bytes(), entries, c.Len())
	}
}

func TestMissMakesRoomBeforeCompute(t *testing.T) {
	const maxEntries = 3
	c := New[int](maxEntries)
	for i := 0; i < maxEntries; i++ {
		c.Do(fmt.Sprint(i), func() (int, error) { return i, nil })
	}
	c.Get("0") // "1" is now the LRU tail
	inCompute := -1
	c.Do("new", func() (int, error) { inCompute = c.Len(); return 9, nil })
	if inCompute != maxEntries-1 {
		t.Errorf("Len during compute = %d, want %d", inCompute, maxEntries-1)
	}
	if _, ok := c.Get("1"); ok {
		t.Error("the LRU tail should have made room")
	}
	if st := c.Stats(); st.Entries != maxEntries || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
}
