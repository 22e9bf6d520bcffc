// Package tenant implements the multi-tenant front door's identity layer:
// API keys, per-tenant limits, and token-bucket rate accounting.
//
// Keys live in a plain-text file, one tenant per line, and are stored hashed
// (SHA-256 of the raw key) so the file never holds a usable credential:
//
//	# <id> <sha256-hex-of-key> [weight=N] [rate=F] [burst=N] [cells=N] [queue=N] [waiters=N]
//	alice 9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08 weight=4 rate=50
//
// A Keyring loads that file and resolves presented keys to Tenant records.
// Reload swaps the parsed table atomically, so a SIGHUP handler can refresh
// keys without quiescing in-flight requests; token buckets survive reloads
// so a reload cannot be used to refill a drained bucket.
package tenant

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tenant is one row of the key file: an identity plus its admission limits.
// Zero-valued limit fields mean "server default" (or unlimited, where noted).
type Tenant struct {
	ID         string  // [A-Za-z0-9._-]+; "" is the anonymous tenant of open mode
	Weight     int     // fair-share weight (DRR quantum); 0 → 1
	Rate       float64 // mutating requests per second; 0 → unlimited
	Burst      int     // token-bucket depth; 0 → max(1, ceil(Rate))
	MaxCells   int     // concurrently running cells; 0 → unlimited
	QueueSize  int     // queued (admitted, not yet running) cells; 0 → server default
	MaxWaiters int     // concurrent long-polls + result streams; 0 → server default
}

// Anonymous is the tenant every request maps to when no keyring is
// configured (open mode). It carries no limits of its own; server defaults
// apply.
var Anonymous = Tenant{ID: ""}

// HashKey returns the hex SHA-256 digest of a raw API key — the form keys
// take in the key file.
func HashKey(raw string) string {
	sum := sha256.Sum256([]byte(raw))
	return hex.EncodeToString(sum[:])
}

type keyTable struct {
	byHash map[string]Tenant // sha256-hex(raw key) → tenant
	byID   map[string]Tenant
}

// Keyring resolves presented API keys to tenants. It is safe for concurrent
// use; Reload replaces the table atomically. Token buckets are keyed by
// tenant ID and persist across reloads.
type Keyring struct {
	path  string
	table atomic.Pointer[keyTable]

	mu      sync.Mutex // guards reload and buckets
	buckets map[string]*bucket
}

// Load reads the key file at path and returns a ready Keyring.
func Load(path string) (*Keyring, error) {
	k := &Keyring{path: path, buckets: make(map[string]*bucket)}
	if err := k.Reload(); err != nil {
		return nil, err
	}
	return k, nil
}

// Reload re-reads the key file and swaps the parsed table in atomically.
// On parse error the previous table stays in effect. Buckets for tenants
// that disappeared are pruned; surviving tenants keep their bucket state.
func (k *Keyring) Reload() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	f, err := os.Open(k.path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := parse(f)
	if err != nil {
		return fmt.Errorf("%s: %w", k.path, err)
	}
	k.table.Store(t)
	for id := range k.buckets {
		if _, ok := t.byID[id]; !ok {
			delete(k.buckets, id)
		}
	}
	return nil
}

func parse(f *os.File) (*keyTable, error) {
	t := &keyTable{byHash: make(map[string]Tenant), byID: make(map[string]Tenant)}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: want \"<id> <sha256-hex> [k=v...]\"", line)
		}
		tn := Tenant{ID: fields[0]}
		if !ValidID(tn.ID) {
			return nil, fmt.Errorf("line %d: tenant id %q: only [A-Za-z0-9._-] allowed", line, tn.ID)
		}
		hash := strings.ToLower(fields[1])
		if len(hash) != 64 {
			return nil, fmt.Errorf("line %d: key hash must be 64 hex chars (sha256)", line)
		}
		if _, err := hex.DecodeString(hash); err != nil {
			return nil, fmt.Errorf("line %d: key hash is not hex: %v", line, err)
		}
		for _, kv := range fields[2:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("line %d: option %q: want key=value", line, kv)
			}
			if err := tn.setOption(key, val); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
		}
		if _, dup := t.byID[tn.ID]; dup {
			return nil, fmt.Errorf("line %d: duplicate tenant id %q", line, tn.ID)
		}
		if _, dup := t.byHash[hash]; dup {
			return nil, fmt.Errorf("line %d: duplicate key hash", line)
		}
		t.byID[tn.ID] = tn
		t.byHash[hash] = tn
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Tenant) setOption(key, val string) error {
	switch key {
	case "rate":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return fmt.Errorf("rate=%q: want non-negative number", val)
		}
		t.Rate = f
		return nil
	case "weight", "burst", "cells", "queue", "waiters":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("%s=%q: want non-negative integer", key, val)
		}
		switch key {
		case "weight":
			t.Weight = n
		case "burst":
			t.Burst = n
		case "cells":
			t.MaxCells = n
		case "queue":
			t.QueueSize = n
		case "waiters":
			t.MaxWaiters = n
		}
		return nil
	default:
		return fmt.Errorf("unknown option %q", key)
	}
}

// ValidID reports whether id is a legal tenant identifier. The charset
// excludes "/" so tenant-scoped graph names ("<id>/<name>") cannot collide
// across tenants.
func ValidID(id string) bool {
	if id == "" {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// Lookup resolves a presented raw API key. The second result is false when
// the key matches no tenant.
func (k *Keyring) Lookup(rawKey string) (Tenant, bool) {
	t := k.table.Load()
	if t == nil {
		return Tenant{}, false
	}
	tn, ok := t.byHash[HashKey(rawKey)]
	return tn, ok
}

// ByID resolves a tenant by identifier (for limit lookups after auth).
func (k *Keyring) ByID(id string) (Tenant, bool) {
	t := k.table.Load()
	if t == nil {
		return Tenant{}, false
	}
	tn, ok := t.byID[id]
	return tn, ok
}

// Len returns the number of configured tenants.
func (k *Keyring) Len() int {
	t := k.table.Load()
	if t == nil {
		return 0
	}
	return len(t.byID)
}

// Allow consumes one token from id's rate bucket, reporting whether the
// request may proceed. Tenants with Rate == 0 are unlimited. Unknown
// tenants are allowed (auth has already vouched for them; a reload race
// should not 429 an in-flight request).
func (k *Keyring) Allow(id string) bool {
	tn, ok := k.ByID(id)
	if !ok || tn.Rate <= 0 {
		return true
	}
	k.mu.Lock()
	b := k.buckets[id]
	if b == nil {
		b = newBucket(tn.Rate, tn.effectiveBurst())
		k.buckets[id] = b
	}
	k.mu.Unlock()
	return b.allow(time.Now(), tn.Rate, float64(tn.effectiveBurst()))
}

func (t Tenant) effectiveBurst() int {
	if t.Burst > 0 {
		return t.Burst
	}
	if b := int(t.Rate + 0.999999); b > 1 {
		return b
	}
	return 1
}

// bucket is a standard token bucket. Rate and burst are passed on each
// allow call so a key-file reload retunes the bucket without resetting its
// level.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newBucket(rate float64, burst int) *bucket {
	return &bucket{tokens: float64(burst)}
}

func (b *bucket) allow(now time.Time, rate, burst float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * rate
	}
	b.last = now
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
