// Package store is the named graph registry behind the batch-sweep
// subsystem: clients register a graph once — uploaded in the graph.Encode
// text format or described by a registry generator spec — under a name, and
// every later job or batch references it by that name instead of re-shipping
// the adjacency list.
//
// Layer (DESIGN.md §2): store sits beside internal/service, above
// internal/registry and internal/graph; it imports only those substrates and
// is imported by the service's batch engine and the HTTP front-end.
//
// Concurrency and ownership: a Store is safe for concurrent use (one
// internal mutex guards all state). Stored graphs are deduplicated by
// registry.Fingerprint — two names whose contents hash identically share one
// *graph.Graph payload — so every graph handed out by Acquire is shared and
// MUST be treated as read-only (topology is immutable by construction;
// callers must not touch weights either). Acquire pins a name against
// Delete and capacity eviction until its release function is called; pins
// are how a running batch keeps its input alive.
package store

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/wal"
)

// Store errors surfaced to clients.
var (
	ErrNotFound = errors.New("store: no such graph")
	ErrPinned   = errors.New("store: graph is pinned by a running batch")
	ErrExists   = errors.New("store: name already bound to a different graph")
	ErrFull     = errors.New("store: at capacity and every graph is pinned")
	// ErrClosed refuses a Put or Delete on a closed durable store, which
	// could no longer journal it.
	ErrClosed = errors.New("store: closed")
	// ErrRevive marks an Acquire of a spilled name whose spill file could
	// not be read back: a fault of the server's storage, not of the request.
	ErrRevive = errors.New("store: revive")
)

// Config sizes the store. Zero values select defaults.
type Config struct {
	// MaxGraphs bounds how many names the store holds resident (default
	// 256). At capacity, Put evicts the least-recently-used unpinned name;
	// if every name is pinned, Put fails with ErrFull.
	MaxGraphs int
	// SpillDir, when non-empty, turns capacity eviction into spill: the
	// victim's graph is written once as <fingerprint>.rgd1 (skipped if the
	// file already exists) and the name moves to a spilled index instead of
	// vanishing. Get still answers from the index; Acquire transparently
	// revives the name by mmapping the RGD1 file, so resident cost after
	// revival is page-cache-managed rather than heap. The directory is a
	// content-addressed cache: files are never deleted by the store and are
	// safe to share between store instances or wipe between runs.
	SpillDir string
	// WALDir, when non-empty, makes the registry durable: name bindings are
	// journaled to an internal/wal log there and replayed by Open on the
	// next boot (see durable.go). Requires spill files for the graph bytes,
	// so SpillDir defaults to <WALDir>/spill when unset. New ignores this;
	// use Open.
	WALDir string
	// SnapshotEvery compacts the WAL after this many records (0 = only the
	// final snapshot written by Close).
	SnapshotEvery int
	// WALSegmentBytes overrides the WAL segment rotation size (testing).
	WALSegmentBytes int64
	// WALHooks injects crash points into the WAL (testing).
	WALHooks *wal.TestHooks
	// Logger, when set, receives wal_replay / wal_snapshot_failed events.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 256
	}
	return c
}

// Source describes the graph being registered: exactly one of Graph (an
// already-decoded upload) or Gen (a registered generator name, with
// GenParams) must be set.
type Source struct {
	Graph     *graph.Graph
	Gen       string
	GenParams registry.GenParams
}

// Info is an immutable snapshot of one named graph.
type Info struct {
	Name        string
	Fingerprint string
	Nodes       int
	Edges       int
	// Gen is the generator that produced the graph, "" for uploads.
	Gen string
	// Pins counts outstanding Acquires; a pinned name cannot be deleted
	// or evicted.
	Pins int
	// Shared counts how many names (this one included) share the
	// deduplicated payload. 0 for spilled names.
	Shared    int
	CreatedAt time.Time
	// Spilled marks a name whose graph currently lives in SpillDir rather
	// than memory; Acquire revives it on demand.
	Spilled bool
}

// payload is one deduplicated graph shared by refs names.
type payload struct {
	g    *graph.Graph
	fp   string
	refs int
}

type record struct {
	name     string
	pl       *payload
	gen      string
	pins     int
	created  time.Time
	lastUsed uint64 // store tick, for LRU eviction
}

// spillRec is the on-disk index entry for a spilled name: enough metadata
// to answer Get without touching the file, plus the fingerprint that names
// the RGD1 file to revive from.
type spillRec struct {
	fp      string
	gen     string
	n, m    int
	created time.Time
}

// spillRec returns the index entry rec becomes when it is spilled.
func (rec *record) spillRec() spillRec {
	return spillRec{fp: rec.pl.fp, gen: rec.gen, n: rec.pl.g.N(), m: rec.pl.g.M(), created: rec.created}
}

// Store is the named graph registry. Create with New.
type Store struct {
	mu      sync.Mutex
	cfg     Config
	names   map[string]*record
	byFP    map[string]*payload
	spilled map[string]spillRec
	// mapped caches revived mmap-backed graphs by fingerprint so one file
	// is mapped at most once per process. Entries are never unmapped: a
	// revived graph may be retained by jobs past any store bookkeeping, and
	// an idle MAP_PRIVATE mapping costs only reclaimable page cache.
	mapped map[string]*graph.Graph
	clock  uint64
	// wal is the durability journal, nil for stores built with New or
	// opened without a WALDir, and once Close has run. Guarded by mu like
	// everything else.
	wal *wal.Log
	// closed marks a durable store after Close: it refuses writes.
	closed bool
}

// New returns an empty store. When cfg.SpillDir is set, the directory is
// created on first use.
func New(cfg Config) *Store {
	return &Store{
		cfg:     cfg.withDefaults(),
		names:   make(map[string]*record),
		byFP:    make(map[string]*payload),
		spilled: make(map[string]spillRec),
		mapped:  make(map[string]*graph.Graph),
	}
}

// ValidName reports whether name is usable as a graph handle: 1–128
// characters of "/"-separated non-empty segments from [A-Za-z0-9._-], so
// names embed safely in URLs and logs. The "/" is reserved for namespace
// prefixes (the multi-tenant front door stores tenant graphs as
// "<tenant>/<name>"); the HTTP layer rejects it in user-supplied names, so
// only internal callers create multi-segment handles. Names never become
// filesystem paths — spill files are keyed by fingerprint — so the
// separator carries no traversal risk.
func ValidName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("store: name must be 1–128 characters, got %d", len(name))
	}
	prev := '/'
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		case r == '/':
			if prev == '/' {
				return fmt.Errorf("store: name %q has an empty segment", name)
			}
		default:
			return fmt.Errorf("store: name %q may only contain [A-Za-z0-9._-] and /", name)
		}
		prev = r
	}
	if prev == '/' {
		return fmt.Errorf("store: name %q has an empty segment", name)
	}
	return nil
}

// Put registers src under name and returns its info plus whether the bytes
// were already present (deduplicated against another name, or an idempotent
// re-put of the same name with identical content). Re-putting a name with
// different content fails with ErrExists: names are stable handles, not
// mutable slots — delete first to rebind. A closed durable store refuses
// with ErrClosed.
func (s *Store) Put(name string, src Source) (Info, bool, error) {
	if err := ValidName(name); err != nil {
		return Info{}, false, err
	}
	g, gen, err := src.Build()
	if err != nil {
		return Info{}, false, err
	}
	fp := registry.Fingerprint(g)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Info{}, false, ErrClosed
	}
	s.clock++
	if rec, ok := s.names[name]; ok {
		if rec.pl.fp != fp {
			return Info{}, false, fmt.Errorf("%w: %s holds %s", ErrExists, name, rec.pl.fp)
		}
		rec.lastUsed = s.clock
		return s.infoLocked(rec), true, nil
	}
	// Settle everything that can fail — the conflict, the room, the journal
	// — before changing what the store holds: a refused Put changes nothing.
	sp, wasSpilled := s.spilled[name]
	if wasSpilled && sp.fp != fp {
		return Info{}, false, fmt.Errorf("%w: %s holds %s (spilled)", ErrExists, name, sp.fp)
	}
	victim, err := s.victimLocked()
	if err != nil {
		return Info{}, false, err
	}
	created := time.Now()
	// An idempotent re-put of a spilled name hands the bytes back: it
	// un-spills with them, and its binding is already journaled.
	if !wasSpilled {
		// Write-ahead: the binding is durable before it is visible.
		if err := s.journalPutLocked(name, &payload{g: g, fp: fp}, gen, created); err != nil {
			return Info{}, false, err
		}
	}
	s.evictLocked(victim)
	delete(s.spilled, name)
	pl, dedup := s.byFP[fp]
	if !dedup {
		pl = &payload{g: g, fp: fp}
		s.byFP[fp] = pl
	}
	pl.refs++
	rec := &record{name: name, pl: pl, gen: gen, created: created, lastUsed: s.clock}
	s.names[name] = rec
	if s.wal != nil && !wasSpilled {
		s.maybeSnapshotLocked()
	}
	return s.infoLocked(rec), dedup, nil
}

// Build returns the graph src describes — the uploaded graph itself, or
// the generator's output — and the generator's name ("" for uploads).
func (src Source) Build() (*graph.Graph, string, error) {
	switch {
	case src.Graph != nil && src.Gen != "":
		return nil, "", errors.New("store: set exactly one of Graph and Gen, not both")
	case src.Graph != nil:
		return src.Graph, "", nil
	case src.Gen != "":
		spec, ok := registry.GetGenerator(src.Gen)
		if !ok {
			return nil, "", fmt.Errorf("store: unknown generator %q (have: %s)",
				src.Gen, strings.Join(registry.GeneratorNames(), ", "))
		}
		g, err := spec.Build(src.GenParams)
		if err != nil {
			return nil, "", err
		}
		return g, src.Gen, nil
	default:
		return nil, "", errors.New("store: empty source: set Graph or Gen")
	}
}

// victimLocked picks the name to evict when the store is at capacity: the
// least-recently-used unpinned one. It returns nil when there is room, and
// ErrFull when every name is pinned. Must be called with s.mu held.
func (s *Store) victimLocked() (*record, error) {
	if len(s.names) < s.cfg.MaxGraphs {
		return nil, nil
	}
	var victim *record
	for _, rec := range s.names {
		if rec.pins > 0 {
			continue
		}
		if victim == nil || rec.lastUsed < victim.lastUsed {
			victim = rec
		}
	}
	if victim == nil {
		return nil, ErrFull
	}
	return victim, nil
}

// evictLocked removes victim (nil: nothing to evict), spilling it to disk
// first when a SpillDir is configured. Must be called with s.mu held.
func (s *Store) evictLocked(victim *record) {
	if victim == nil {
		return
	}
	if s.cfg.SpillDir != "" {
		// Best effort: a failed spill (disk full, permissions) degrades to
		// the pre-spill behavior — plain eviction of a cache entry — rather
		// than wedging every Put behind a broken directory.
		if err := s.spillFileLocked(victim.pl); err == nil {
			s.spilled[victim.name] = victim.spillRec()
		}
	}
	s.removeLocked(victim)
}

func (s *Store) spillPath(fp string) string {
	return filepath.Join(s.cfg.SpillDir, fp+".rgd1")
}

// spillFileLocked ensures <SpillDir>/<fp>.rgd1 holds pl's graph. The file is
// content-addressed, so an existing file is already correct and the write is
// skipped; revived mmap-backed payloads skip it the same way (their bytes
// came from that very file).
func (s *Store) spillFileLocked(pl *payload) error {
	if _, mappedAlready := s.mapped[pl.fp]; mappedAlready {
		return nil
	}
	path := s.spillPath(pl.fp)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(s.cfg.SpillDir, 0o755); err != nil {
		return err
	}
	return graph.WriteDisk(path, pl.g)
}

// reviveLocked brings a spilled name back into the resident map and returns
// its record. Cheapest source wins: a still-resident payload with the same
// fingerprint, then an already-mapped file, then a fresh OpenDisk.
func (s *Store) reviveLocked(name string, sp spillRec) (*record, error) {
	g := (*graph.Graph)(nil)
	if pl, ok := s.byFP[sp.fp]; ok {
		g = pl.g
	} else if mg, ok := s.mapped[sp.fp]; ok {
		g = mg
	} else {
		d, err := graph.OpenDisk(s.spillPath(sp.fp))
		if err != nil {
			return nil, fmt.Errorf("%w %q: %w", ErrRevive, name, err)
		}
		s.mapped[sp.fp] = d.Graph
		g = d.Graph
	}
	victim, err := s.victimLocked()
	if err != nil {
		return nil, err
	}
	s.evictLocked(victim)
	pl, dedup := s.byFP[sp.fp]
	if !dedup {
		pl = &payload{g: g, fp: sp.fp}
		s.byFP[sp.fp] = pl
	}
	pl.refs++
	rec := &record{name: name, pl: pl, gen: sp.gen, created: sp.created, lastUsed: s.clock}
	s.names[name] = rec
	delete(s.spilled, name)
	return rec, nil
}

func (s *Store) removeLocked(rec *record) {
	delete(s.names, rec.name)
	rec.pl.refs--
	if rec.pl.refs == 0 {
		delete(s.byFP, rec.pl.fp)
	}
}

// Get returns the info of the named graph. Spilled names answer from the
// spill index without touching the file.
func (s *Store) Get(name string) (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.names[name]; ok {
		return s.infoLocked(rec), true
	}
	if sp, ok := s.spilled[name]; ok {
		return spillInfo(name, sp), true
	}
	return Info{}, false
}

func spillInfo(name string, sp spillRec) Info {
	return Info{
		Name:        name,
		Fingerprint: sp.fp,
		Nodes:       sp.n,
		Edges:       sp.m,
		Gen:         sp.gen,
		CreatedAt:   sp.created,
		Spilled:     true,
	}
}

// List returns every named graph, sorted by name.
func (s *Store) List() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.names)+len(s.spilled))
	for _, rec := range s.names {
		out = append(out, s.infoLocked(rec))
	}
	for name, sp := range s.spilled {
		out = append(out, spillInfo(name, sp))
	}
	slices.SortFunc(out, func(a, b Info) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Len returns the number of names held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.names)
}

// Acquire pins the named graph and returns it with a release function. The
// graph is shared: callers must treat it as strictly read-only. The release
// function is idempotent and must be called exactly when the caller is done,
// or the name can never be deleted or evicted.
func (s *Store) Acquire(name string) (*graph.Graph, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.names[name]
	if !ok {
		sp, wasSpilled := s.spilled[name]
		if !wasSpilled {
			return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		var err error
		if rec, err = s.reviveLocked(name, sp); err != nil {
			return nil, nil, err
		}
	}
	s.clock++
	rec.lastUsed = s.clock
	rec.pins++
	var once sync.Once
	release := func() {
		once.Do(func() {
			s.mu.Lock()
			rec.pins--
			s.mu.Unlock()
		})
	}
	return rec.pl.g, release, nil
}

// Delete removes the named graph. Pinned names refuse with ErrPinned; the
// deduplicated payload is freed when its last name goes. A closed durable
// store refuses with ErrClosed.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	rec, ok := s.names[name]
	if !ok {
		if _, wasSpilled := s.spilled[name]; wasSpilled {
			if err := s.journalDeleteLocked(name); err != nil {
				return err
			}
			// The spill file stays: it is content-addressed and may back
			// other names (or a future re-put of identical content).
			delete(s.spilled, name)
			s.maybeSnapshotLocked()
			return nil
		}
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if rec.pins > 0 {
		return fmt.Errorf("%w: %q has %d pins", ErrPinned, name, rec.pins)
	}
	if err := s.journalDeleteLocked(name); err != nil {
		return err
	}
	s.removeLocked(rec)
	if s.wal != nil {
		s.maybeSnapshotLocked()
	}
	return nil
}

// infoLocked must be called with s.mu held.
func (s *Store) infoLocked(rec *record) Info {
	return Info{
		Name:        rec.name,
		Fingerprint: rec.pl.fp,
		Nodes:       rec.pl.g.N(),
		Edges:       rec.pl.g.M(),
		Gen:         rec.gen,
		Pins:        rec.pins,
		Shared:      rec.pl.refs,
		CreatedAt:   rec.created,
	}
}
