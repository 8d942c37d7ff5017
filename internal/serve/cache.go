package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"sync"
)

// Cache is the content-addressed result store: an in-memory LRU over
// response bodies keyed by spec hash, optionally backed by an on-disk
// directory so a restarted server still answers previously computed
// scenarios without re-simulating. Bodies are immutable once stored
// (they are pure functions of their key), so there is no invalidation —
// only capacity eviction.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	dir      string // "" = memory only

	hits     uint64 // served from memory
	diskHits uint64 // faulted in from the disk store
	misses   uint64 // not found anywhere
	puts     uint64
	evicts   uint64
}

// CacheStats is the cache's /metrics block.
type CacheStats struct {
	Hits     uint64 `json:"hits"`      // lookups served from memory
	DiskHits uint64 `json:"disk_hits"` // lookups faulted in from disk
	Misses   uint64 `json:"misses"`    // lookups that found nothing
	Entries  int    `json:"entries"`   // bodies resident in memory now
	Puts     uint64 `json:"puts"`
	Evicts   uint64 `json:"evicts"`
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewCache returns a cache holding up to capacity bodies in memory
// (capacity <= 0 means 4096). A non-empty dir enables the disk store;
// the directory is created if missing.
func NewCache(capacity int, dir string) (*Cache, error) {
	if capacity <= 0 {
		capacity = 4096
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Cache{capacity: capacity, ll: list.New(),
		byKey: make(map[string]*list.Element), dir: dir}, nil
}

// keyPat guards disk paths: keys are hex digests, and nothing else may
// reach the filesystem.
var keyPat = regexp.MustCompile(`^[0-9a-f]{16,64}$`)

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// sealLen is the length of a disk entry's integrity footer.
const sealLen = 1 + 2*sha256.Size

// seal returns the footer Put appends to a disk entry: a newline and
// the hex SHA-256 of key ‖ body. It binds the bytes to the key they
// were stored under, so a truncated or damaged file, or one copied
// under another key, does not verify.
func seal(key string, body []byte) []byte {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write(body)
	return hex.AppendEncode([]byte{'\n'}, h.Sum(nil))
}

// Get returns the cached body for key. Memory first; on a miss the
// disk store is consulted and a hit is promoted into memory. A disk
// entry whose footer does not verify is removed and counts as a miss,
// so the scenario recomputes instead of serving damaged bytes.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if e, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(e)
		body := e.Value.(*cacheEntry).body
		c.hits++
		c.mu.Unlock()
		return body, true
	}
	c.mu.Unlock()
	if c.dir != "" && keyPat.MatchString(key) {
		if data, err := os.ReadFile(c.path(key)); err == nil {
			if n := len(data) - sealLen; n >= 0 && bytes.Equal(data[n:], seal(key, data[:n])) {
				body := data[:n:n]
				c.mu.Lock()
				c.diskHits++
				c.insert(key, body)
				c.mu.Unlock()
				return body, true
			}
			// Best-effort: a file that cannot be removed is rejected
			// again on the next lookup, or replaced by the next Put.
			_ = os.Remove(c.path(key))
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// insert adds a body under c.mu, evicting from the LRU tail past
// capacity.
func (c *Cache) insert(key string, body []byte) {
	if e, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*cacheEntry).body = body
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byKey, tail.Value.(*cacheEntry).key)
		c.evicts++
	}
}

// Put stores a computed body. The disk write (body plus its seal) is
// atomic (tmp + rename) and best-effort: a full disk degrades the store
// to memory-only rather than failing the request.
func (c *Cache) Put(key string, body []byte) {
	c.mu.Lock()
	c.puts++
	c.insert(key, body)
	c.mu.Unlock()
	if c.dir != "" && keyPat.MatchString(key) {
		tmp := c.path(key) + ".tmp"
		data := append(body[:len(body):len(body)], seal(key, body)...)
		if err := os.WriteFile(tmp, data, 0o644); err == nil {
			_ = os.Rename(tmp, c.path(key))
		}
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, DiskHits: c.diskHits, Misses: c.misses,
		Entries: c.ll.Len(), Puts: c.puts, Evicts: c.evicts}
}
