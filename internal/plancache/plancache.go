// Package plancache is the content-addressed plan cache behind T10's
// compilation pipeline. Search results are keyed by a fingerprint of
// everything that determines them — operator expression, shapes, dtype,
// device configuration and search constraints — so identical searches
// are answered from cache regardless of which model, compiler instance
// or process asked first.
//
// The cache has two layers:
//
//   - a sharded in-memory LRU holding decoded values, safe for
//     concurrent use from the compile worker pool, and
//   - an optional on-disk blob store (one file per key under Dir), so
//     repeated t10c/t10serve invocations skip the Pareto search
//     entirely.
//
// The package stores opaque values ([]byte on disk, any in memory);
// serialization belongs to the caller, which knows how to rebuild
// plans deterministically from compact records.
package plancache

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Key is a content hash identifying one cached search.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (also the on-disk filename).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the 64-hex-digit wire form of a Key (the
// /plans/{fingerprint} path segment); ok is false for anything else.
func ParseKey(s string) (Key, bool) {
	var k Key
	if len(s) != hex.EncodedLen(len(k)) {
		return Key{}, false
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return Key{}, false
	}
	return k, true
}

// Fingerprint hashes the parts into a Key. Parts are length-prefixed,
// so ("ab","c") and ("a","bc") produce different keys.
func Fingerprint(parts ...string) Key {
	var b []byte
	for _, p := range parts {
		b = AppendPart(b, p)
	}
	return Sum(b)
}

// AppendPart appends the concatenation of pieces to b as one part in
// the encoding Fingerprint hashes: its length as 8 little-endian bytes,
// then its bytes. Pieces spare the caller building "name="+value.
func AppendPart(b []byte, pieces ...string) []byte {
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	for _, p := range pieces {
		b = append(b, p...)
	}
	return b
}

// Sum hashes AppendPart-encoded parts: Sum(AppendPart(nil, p)) == Fingerprint(p).
func Sum(b []byte) Key { return sha256.Sum256(b) }

// Options configures a Cache.
type Options struct {
	// MaxEntries caps the total in-memory entries across all shards;
	// 0 means DefaultMaxEntries.
	MaxEntries int

	// Shards is the number of LRU shards; 0 means DefaultShards.
	Shards int

	// Dir, when non-empty, enables the on-disk layer. The directory is
	// created on first use.
	Dir string

	// Builder is the provenance builder-version string stamped into
	// every persisted record's envelope; a record whose builder differs
	// from the reader's is rejected as a miss-and-overwrite (a stale or
	// foreign builder's plans must never answer this one's searches).
	// Empty means DefaultBuilder.
	Builder string

	// Salt, when non-empty, is the deployment secret that HMACs every
	// persisted record. Readers with the same salt reject tampered or
	// unsigned records as misses; readers with a different salt reject
	// everything another deployment wrote. Saltless caches skip MAC
	// verification entirely (the envelope's builder + key checks still
	// apply), so a single-machine cache pays nothing for the option.
	Salt []byte
}

// Defaults for Options zero values.
const (
	DefaultMaxEntries = 4096
	DefaultShards     = 16
)

// DefaultBuilder identifies this build of the plan pipeline in record
// envelopes. Bump it together with the payload format version whenever
// persisted plans stop being answerable by the current code — an old
// builder's records then load as misses everywhere at once, instead of
// each payload decoder rediscovering staleness on its own.
const DefaultBuilder = "t10-builder/8"

// envelopeVersion versions the provenance envelope itself (the framing
// around the payload, not the payload format).
const envelopeVersion = 1

// blobEnvelope is the provenance frame around every persisted record:
// who built it (Builder), for which fingerprint chain (Key, hex — the
// content address covers device, constraints, config and operator, so
// echoing it binds the payload to everything that determined it), and
// an optional HMAC over all of that under the deployment salt. A
// record failing any check loads as a miss and is overwritten by the
// fresh search — provenance is a cache-consistency mechanism, not an
// error path.
type blobEnvelope struct {
	V       int             `json:"v"`
	Builder string          `json:"builder"`
	Key     string          `json:"key"`
	MAC     string          `json:"mac,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// Stats is a point-in-time snapshot of cache activity. Hit/miss counts
// cover the in-memory layer; the Disk* counts cover the blob store.
type Stats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`

	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	DiskWrites int64 `json:"disk_writes"`
	DiskErrors int64 `json:"disk_errors"`

	// DiskRejects counts records that were present on disk but failed a
	// provenance check (foreign builder, wrong key, bad or missing MAC,
	// unparseable envelope). Every reject is also a DiskMiss — the
	// counter exists so an operator can tell "cold" from "poisoned".
	DiskRejects int64 `json:"disk_rejects"`

	// Remote* mirror the attached Remote tier's aggregates (zero when
	// no remote is attached): fetches answered by a verified peer
	// record, fetches no peer could answer, and peer responses (or
	// pushed records) rejected by the provenance check.
	RemoteHits    int64 `json:"remote_hits"`
	RemoteMisses  int64 `json:"remote_misses"`
	RemoteRejects int64 `json:"remote_rejects"`

	// ImportRejects counts records a peer pushed (ImportBlob) that
	// failed verification and were refused — counted even without a
	// Remote attached, since any replica may receive pushes.
	ImportRejects int64 `json:"import_rejects"`
}

// Cache is a sharded LRU with an optional disk layer. All methods are
// safe for concurrent use.
type Cache struct {
	shards  []shard
	dir     string
	builder string
	salt    []byte
	remote  *Remote // optional peer tier; set once at construction time

	hits, misses, evictions atomic.Int64
	diskHits, diskMisses    atomic.Int64
	diskWrites, diskErrors  atomic.Int64
	diskRejects             atomic.Int64
	importRejects           atomic.Int64
	dirOnce                 sync.Once
	dirErr                  error
}

type entry struct {
	key        Key
	val        any
	prev, next *entry // LRU ring: head.next is most recent
}

type shard struct {
	mu   sync.Mutex
	m    map[Key]*entry
	head entry // sentinel of the doubly-linked LRU ring
	cap  int
}

// New builds a Cache.
func New(opts Options) *Cache {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	max := opts.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	perShard := (max + n - 1) / n
	builder := opts.Builder
	if builder == "" {
		builder = DefaultBuilder
	}
	c := &Cache{
		shards: make([]shard, n), dir: opts.Dir,
		builder: builder, salt: append([]byte(nil), opts.Salt...),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[Key]*entry)
		s.cap = perShard
		s.head.prev, s.head.next = &s.head, &s.head
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	// the key is a cryptographic hash; any byte picks a uniform shard
	return &c.shards[int(k[0])%len(c.shards)]
}

// Get returns the in-memory value for the key and refreshes its
// recency.
func (c *Cache) Get(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.m[k]
	var v any
	if ok {
		// copy under the lock: a concurrent Put may refresh e.val
		v = e.val
		s.moveToFront(e)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return v, true
}

// Peek returns the in-memory value for the key without refreshing its
// recency or touching the hit/miss counters — an observation, not a
// use. Consistency tests rely on it to prove that a cancelled search
// left no record behind without perturbing the stats or the LRU order
// they are also asserting on.
func (c *Cache) Peek(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[k]
	if !ok {
		return nil, false
	}
	return e.val, true
}

// Put inserts (or refreshes) an in-memory entry, evicting the least
// recently used entry of its shard when full.
func (c *Cache) Put(k Key, v any) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.m[k]; ok {
		e.val = v
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	e := &entry{key: k, val: v}
	s.m[k] = e
	s.insertFront(e)
	var evicted bool
	if len(s.m) > s.cap {
		last := s.head.prev
		s.unlink(last)
		delete(s.m, last.key)
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Entries:       c.Len(),
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		DiskHits:      c.diskHits.Load(),
		DiskMisses:    c.diskMisses.Load(),
		DiskWrites:    c.diskWrites.Load(),
		DiskErrors:    c.diskErrors.Load(),
		DiskRejects:   c.diskRejects.Load(),
		ImportRejects: c.importRejects.Load(),
	}
	if c.remote != nil {
		rs := c.remote.Stats()
		st.RemoteHits = rs.Hits
		st.RemoteMisses = rs.Misses
		st.RemoteRejects = rs.Rejects
	}
	return st
}

// Persists reports whether PutBlob stores anything: the cache has an
// on-disk layer or a peer tier. Without either, a caller can skip
// encoding the record.
func (c *Cache) Persists() bool { return c.dir != "" || c.remote != nil }

// SetRemote attaches the peer tier. Call it once, before the cache is
// shared with concurrent readers — remote attachment is construction-
// time wiring, not a runtime toggle.
func (c *Cache) SetRemote(r *Remote) { c.remote = r }

// Remote returns the attached peer tier, or nil.
func (c *Cache) Remote() *Remote { return c.remote }

// mac computes the record MAC: HMAC-SHA256 over the length-prefixed
// (builder, key, payload) triple under the deployment salt. The
// length prefixes make the concatenation unambiguous: it is the
// AppendPart encoding Fingerprint hashes.
func (c *Cache) mac(key string, payload []byte) string {
	h := hmac.New(sha256.New, c.salt)
	h.Write(AppendPart(AppendPart(AppendPart(nil, c.builder), key), string(payload)))
	return hex.EncodeToString(h.Sum(nil))
}

// open verifies one raw on-disk record's provenance envelope and
// returns its payload; ok is false for any record this cache must not
// trust (unparseable envelope, wrong envelope version, foreign
// builder, key mismatch, bad or missing MAC under a salt).
func (c *Cache) open(k Key, raw []byte) ([]byte, bool) {
	var env blobEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, false
	}
	if env.V != envelopeVersion || env.Builder != c.builder || env.Key != k.String() {
		return nil, false
	}
	if len(c.salt) > 0 {
		want := c.mac(env.Key, env.Payload)
		if env.MAC == "" || !hmac.Equal([]byte(env.MAC), []byte(want)) {
			return nil, false
		}
	}
	return env.Payload, true
}

// GetBlob reads and provenance-checks the on-disk record for the key,
// returning its payload. Returns false when the disk layer is
// disabled, the entry is absent, the read fails, or the record fails a
// provenance check (foreign builder, tampered payload, wrong salt) —
// the last case additionally counts as a DiskReject, and the caller's
// fresh search overwrites the record.
func (c *Cache) GetBlob(k Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	raw, err := os.ReadFile(c.blobPath(k))
	if err != nil {
		c.diskMisses.Add(1)
		return nil, false
	}
	payload, ok := c.open(k, raw)
	if !ok {
		c.diskRejects.Add(1)
		c.diskMisses.Add(1)
		return nil, false
	}
	c.diskHits.Add(1)
	return payload, true
}

// PeekBlob reports whether a disk record exists for the key, by stat
// alone — no read, no provenance check, no counters. It is the
// admission-control probe: cheap enough to run per request, and
// advisory anyway (like Peek, a concurrent writer can change the
// answer), so verification would buy nothing the real GetBlob doesn't
// redo.
func (c *Cache) PeekBlob(k Key) bool {
	if c.dir == "" {
		return false
	}
	_, err := os.Stat(c.blobPath(k))
	return err == nil
}

// PutBlob seals the payload in a provenance envelope (builder version,
// fingerprint-chain key, HMAC when a salt is set) and writes it
// atomically (temp file + rename), so concurrent writers and readers
// never observe a partial entry. The payload must be valid JSON — the
// envelope embeds it verbatim; anything else is an error counted in
// DiskErrors. With a Remote attached the sealed record is additionally
// published to the peers, fire-and-forget — a publish failure never
// surfaces here. A disabled disk layer with no remote makes it a
// no-op.
func (c *Cache) PutBlob(k Key, b []byte) error {
	if !c.Persists() {
		return nil
	}
	env := blobEnvelope{
		V: envelopeVersion, Builder: c.builder, Key: k.String(),
		Payload: json.RawMessage(b),
	}
	if len(c.salt) > 0 {
		env.MAC = c.mac(env.Key, b)
	}
	sealed, err := json.Marshal(env)
	if err != nil {
		c.diskErrors.Add(1)
		return err
	}
	if c.dir != "" {
		if err := c.writeRaw(k, sealed); err != nil {
			return err
		}
	}
	c.remote.Publish(k, sealed)
	return nil
}

// writeRaw writes an already-sealed record atomically (temp file +
// rename) and counts it; callers have verified or just built the
// envelope.
func (c *Cache) writeRaw(k Key, sealed []byte) error {
	c.dirOnce.Do(func() { c.dirErr = os.MkdirAll(c.dir, 0o755) })
	if c.dirErr != nil {
		c.diskErrors.Add(1)
		return c.dirErr
	}
	tmp, err := os.CreateTemp(c.dir, "plan-*.tmp")
	if err != nil {
		c.diskErrors.Add(1)
		return err
	}
	if _, err := tmp.Write(sealed); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.diskErrors.Add(1)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.diskErrors.Add(1)
		return err
	}
	if err := os.Rename(tmp.Name(), c.blobPath(k)); err != nil {
		os.Remove(tmp.Name())
		c.diskErrors.Add(1)
		return err
	}
	c.diskWrites.Add(1)
	return nil
}

// GetRemote asks the peer tier for the record: fetch (timeouts,
// retries, breakers — see Remote.Fetch), verify the sealed envelope
// under this cache's builder and salt, and on success write the record
// through to the local disk layer so the next process start is
// disk-warm. Any failure — dead peer, tripped breaker, garbage record
// — is (nil, false), never an error: the caller's cold search is the
// universal fallback. A cache without a Remote always misses.
func (c *Cache) GetRemote(ctx context.Context, k Key) ([]byte, bool) {
	if c.remote == nil {
		return nil, false
	}
	raw, payload, ok := c.remote.Fetch(ctx, k, func(raw []byte) ([]byte, bool) {
		return c.open(k, raw)
	})
	if !ok {
		return nil, false
	}
	if c.dir != "" {
		_ = c.writeRaw(k, raw) // best effort; stats count failures
	}
	return payload, true
}

// RawBlob returns the sealed on-disk record verbatim, envelope and all
// — the peer-serving read behind GET /plans/{fingerprint}. It does no
// verification and moves no counters: the requesting replica verifies
// provenance itself (it must anyway — the wire is not trusted), and an
// unverified serve must not pollute this cache's hit accounting.
func (c *Cache) RawBlob(k Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	raw, err := os.ReadFile(c.blobPath(k))
	if err != nil {
		return nil, false
	}
	return raw, true
}

// ErrImportRejected reports a pushed record that failed provenance
// verification; ErrImportDisabled one pushed at a replica without a
// disk layer to store it in.
var (
	ErrImportRejected = errors.New("plancache: imported record failed provenance verification")
	ErrImportDisabled = errors.New("plancache: disk layer disabled, cannot import records")
)

// ImportBlob verifies an already-sealed record pushed by a peer
// (PUT /plans/{fingerprint}) and stores it verbatim in the disk layer.
// The record must pass the same v5 provenance check a disk read
// applies — right envelope version, this deployment's builder and
// salt, key matching the content address — or it is refused with
// ErrImportRejected and counted: a push surface that trusted its
// callers would let any peer poison the store PutBlob so carefully
// seals.
func (c *Cache) ImportBlob(k Key, raw []byte) error {
	if c.dir == "" {
		return ErrImportDisabled
	}
	if _, ok := c.open(k, raw); !ok {
		c.importRejects.Add(1)
		return ErrImportRejected
	}
	return c.writeRaw(k, raw)
}

func (c *Cache) blobPath(k Key) string {
	return filepath.Join(c.dir, k.String()+".json")
}

// --- intrusive LRU ring (callers hold the shard lock) ---

func (s *shard) insertFront(e *entry) {
	e.prev = &s.head
	e.next = s.head.next
	e.prev.next = e
	e.next.prev = e
}

func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.head.next == e {
		return
	}
	s.unlink(e)
	s.insertFront(e)
}
