package rescache

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(4, 1<<20)
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", "v", 10)
	v, ok := c.Get("k")
	if !ok || v.(string) != "v" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 11 { // the key's byte too
		t.Errorf("stats = %+v", st)
	}
	// Overwrite updates size accounting.
	c.Put("k", "w", 30)
	if c.Bytes() != 31 || c.Len() != 1 {
		t.Errorf("after overwrite: %d entries / %d bytes", c.Len(), c.Bytes())
	}
}

func TestLRUEvictionByCount(t *testing.T) {
	c := New(3, 1<<20)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 1)
	}
	c.Get("k0") // promote k0; k1 is now oldest
	c.Put("k3", 3, 1)
	if _, ok := c.Get("k1"); ok {
		t.Error("LRU victim k1 survived")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s was evicted, want retained", k)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestEvictionByBytes(t *testing.T) {
	c := New(100, 100)
	c.Put("a", 1, 60)
	c.Put("b", 2, 60) // exceeds 100 bytes -> evict a
	if _, ok := c.Get("a"); ok {
		t.Error("byte bound did not evict oldest")
	}
	if c.Bytes() != 61 { // 60 and the key's byte
		t.Errorf("bytes = %d, want 61", c.Bytes())
	}
	// A value over the whole budget, key included, is refused outright.
	c.Put("huge", 3, 1000)
	c.Put("k", 4, 100)
	if c.Peek("huge") || c.Peek("k") {
		t.Error("oversized value was cached")
	}
}

func TestPeekDoesNotPromoteOrCount(t *testing.T) {
	c := New(2, 1<<20)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if !c.Peek("a") || c.Peek("zz") {
		t.Fatal("Peek wrong")
	}
	h, m := c.Stats().Hits, c.Stats().Misses
	if h != 0 || m != 0 {
		t.Errorf("Peek counted hits/misses: %d/%d", h, m)
	}
	// a was NOT promoted by Peek, so it is still the eviction victim.
	c.Put("c", 3, 1)
	if c.Peek("a") {
		t.Error("Peek promoted the entry")
	}
}

func TestPurgeAndDisable(t *testing.T) {
	c := New(4, 1<<20)
	c.Put("a", 1, 5)
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("after purge: %d entries / %d bytes", c.Len(), c.Bytes())
	}
	old := Default()
	defer defaultCache.Store(old)
	Disable()
	if Default() != nil {
		t.Error("Default() non-nil after Disable")
	}
	if got := Enable(8, 1024); Default() != got {
		t.Error("Enable did not install the new cache")
	}
}

func TestConcurrent(t *testing.T) {
	c := New(64, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%100)
				if v, ok := c.Get(k); ok {
					if v.(string) != k {
						t.Errorf("cache returned wrong value for %s", k)
					}
				} else {
					c.Put(k, k, int64(len(k)))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("entry bound violated: %d", c.Len())
	}
}

// encoder is an appendJSON for Reply that writes n bytes of b, flushing
// every 10, and counts its calls and flushes.
type encoder struct {
	n       int
	b       byte
	calls   atomic.Int32
	flushes atomic.Int32
}

func (e *encoder) appendJSON(dst []byte, flush func([]byte) ([]byte, bool)) (_ []byte, ok bool) {
	e.calls.Add(1)
	for i := 0; i < e.n; i += 10 {
		dst = append(dst, bytes.Repeat([]byte{e.b}, min(10, e.n-i))...)
		e.flushes.Add(1)
		if dst, ok = flush(dst); !ok {
			return dst, false
		}
	}
	return dst, true
}

func TestReply(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *Cache)
	}{
		{"missing key", func(t *testing.T, c *Cache) {
			e := &encoder{n: 20, b: 'a'}
			if r := c.Reply("k", 0, e.appendJSON); r != nil || e.calls.Load() != 0 {
				t.Errorf("Reply = %q after %d encodes, want nil and none", r, e.calls.Load())
			}
		}},
		{"first call encodes once and books the reply", func(t *testing.T, c *Cache) {
			c.Put("k", 1, 10)
			e := &encoder{n: 25, b: 'a'}
			r := c.Reply("k", 0, e.appendJSON)
			if string(r) != string(bytes.Repeat([]byte{'a'}, 25)) || cap(r) != 25 || e.calls.Load() != 1 {
				t.Errorf("Reply = %q (cap %d) after %d encodes", r, cap(r), e.calls.Load())
			}
			if c.Bytes() != 11+25 {
				t.Errorf("booked %d bytes, want 36", c.Bytes())
			}
		}},
		{"a repeat shares the kept reply and books nothing", func(t *testing.T, c *Cache) {
			c.Put("k", 1, 10)
			e := &encoder{n: 25, b: 'a'}
			first := c.Reply("k", 0, e.appendJSON)
			booked := c.Bytes()
			again := c.Reply("k", 0, e.appendJSON)
			if &again[0] != &first[0] || e.calls.Load() != 1 || c.Bytes() != booked {
				t.Errorf("repeat: %d encodes, booked %d then %d, same array %v", e.calls.Load(), booked, c.Bytes(), &again[0] == &first[0])
			}
		}},
		{"variants are kept apart", func(t *testing.T, c *Cache) {
			c.Put("k", 1, 10)
			a, b := &encoder{n: 20, b: 'a'}, &encoder{n: 30, b: 'b'}
			ra, rb := c.Reply("k", 0, a.appendJSON), c.Reply("k", 3, b.appendJSON)
			if ra[0] != 'a' || rb[0] != 'b' || len(ra) != 20 || len(rb) != 30 || c.Bytes() != 11+20+30 {
				t.Fatalf("variants 0, 3 = %q, %q, booked %d", ra, rb, c.Bytes())
			}
			if r := c.Reply("k", 3, a.appendJSON); &r[0] != &rb[0] || a.calls.Load() != 1 {
				t.Errorf("variant 3 repeated as %q", r)
			}
		}},
		{"a reply past the room is marked, never encoded again, evicts nothing", func(t *testing.T, c *Cache) {
			c.Put("o", 2, 10)
			c.Put("k", 1, 10) // room 100-11 = 89: the budget less the entry
			e := &encoder{n: 500, b: 'a'}
			for range 2 {
				if r := c.Reply("k", 0, e.appendJSON); r != nil {
					t.Fatalf("Reply = %d bytes past a room of 89", len(r))
				}
			}
			if e.calls.Load() != 1 || e.flushes.Load() != 9 {
				t.Errorf("%d encodes, %d flushes; want one, stopped at the flush past 89 bytes", e.calls.Load(), e.flushes.Load())
			}
			if st := c.Stats(); st.Bytes != 22 || st.Entries != 2 || st.Evictions != 0 {
				t.Errorf("after the marked reply: %+v", st)
			}
		}},
		{"growth evicts other entries, never the entry itself", func(t *testing.T, c *Cache) {
			c.Put("k", 1, 30) // least recently used
			c.Put("o", 2, 30)
			e := &encoder{n: 60, b: 'a'}
			if r := c.Reply("k", 0, e.appendJSON); len(r) != 60 {
				t.Fatalf("Reply = %d bytes, want 60", len(r))
			}
			if st := c.Stats(); !c.Peek("k") || c.Peek("o") || st.Bytes != 31+60 || st.Evictions != 1 {
				t.Errorf("after growth: %+v, k kept %v, o kept %v", st, c.Peek("k"), c.Peek("o"))
			}
		}},
		{"a variant kept while encoding is the one returned", func(t *testing.T, c *Cache) {
			c.Put("k", 1, 10)
			inner := &encoder{n: 20, b: 'a'}
			var kept []byte
			outer := func(dst []byte, flush func([]byte) ([]byte, bool)) ([]byte, bool) {
				kept = c.Reply("k", 0, inner.appendJSON) // a concurrent first hit
				return append(dst, "other"...), true
			}
			if r := c.Reply("k", 0, outer); &r[0] != &kept[0] || c.Bytes() != 11+20 {
				t.Errorf("Reply = %q, booked %d; want the reply kept first, booked once", r, c.Bytes())
			}
		}},
		{"a variant that takes the room while encoding marks this one", func(t *testing.T, c *Cache) {
			c.Put("k", 1, 10) // room 89
			inner := &encoder{n: 60, b: 'a'}
			outer := func(dst []byte, flush func([]byte) ([]byte, bool)) ([]byte, bool) {
				c.Reply("k", 1, inner.appendJSON) // room left: 29
				return append(dst, bytes.Repeat([]byte{'b'}, 40)...), true
			}
			if r := c.Reply("k", 0, outer); r != nil || !c.Peek("k") || c.Bytes() != 11+60 {
				t.Errorf("Reply = %d bytes, entry kept %v, booked %d; want variant 0 marked", len(r), c.Peek("k"), c.Bytes())
			}
		}},
		{"an entry replaced while encoding keeps nothing", func(t *testing.T, c *Cache) {
			c.Put("k", 1, 10)
			replace := func(dst []byte, flush func([]byte) ([]byte, bool)) ([]byte, bool) {
				c.Put("k", 2, 10) // a concurrent miss of the same key
				return append(dst, "old"...), true
			}
			c.Reply("k", 0, replace)
			e := &encoder{n: 20, b: 'a'}
			if r := c.Reply("k", 0, e.appendJSON); len(r) != 20 || c.Bytes() != 11+20 {
				t.Errorf("the new value's reply is %q, booked %d; the old value's reply was kept for it", r, c.Bytes())
			}
		}},
		{"a replacing Put drops the replies, Purge everything", func(t *testing.T, c *Cache) {
			c.Put("k", 1, 10)
			e := &encoder{n: 20, b: 'a'}
			c.Reply("k", 0, e.appendJSON)
			c.Put("k", 2, 10)
			if c.Bytes() != 11 {
				t.Errorf("replacing Put books %d bytes, want 11", c.Bytes())
			}
			if c.Reply("k", 0, e.appendJSON); e.calls.Load() != 2 {
				t.Errorf("the replaced value's reply was kept for the new one")
			}
			c.Purge()
			if r := c.Reply("k", 0, e.appendJSON); r != nil || e.calls.Load() != 2 || c.Bytes() != 0 {
				t.Errorf("after Purge: Reply = %q, %d encodes, %d bytes", r, e.calls.Load(), c.Bytes())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, New(10, 100)) })
	}
}

// TestConcurrentReply: concurrent first hits of one variant may each
// encode, but they all get the same bytes, and one reply is kept and
// booked once.
func TestConcurrentReply(t *testing.T) {
	c := New(10, 1<<20)
	c.Put("k", 1, 10)
	e := &encoder{n: 100_000, b: 'a'} // 10 000 flushes, so the encodes overlap
	replies := make([][]byte, 8)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			replies[g] = c.Reply("k", 0, e.appendJSON)
		}()
	}
	start.Done()
	wg.Wait()
	for g, r := range replies {
		if !bytes.Equal(r, replies[0]) || len(r) != 100_000 {
			t.Errorf("goroutine %d got %d bytes, goroutine 0 %d", g, len(r), len(replies[0]))
		}
	}
	kept := c.items["k"].Value.(*entry).replies
	if len(kept) != 1 || c.Bytes() != 11+100_000 {
		t.Errorf("%d replies kept, %d bytes booked; want one, booked once", len(kept), c.Bytes())
	}
}
