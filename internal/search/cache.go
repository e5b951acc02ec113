package search

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/plancache"
)

// resultFormat versions the on-disk record layout; bump it whenever the
// encoding (or the meaning of a cached plan) changes. A record with any
// other version — older or newer — is a plain cache miss: the search
// re-runs and overwrites it (never an error, never a silently-wrong
// hit).
//
// v2: Spaces gained Priced/Pruned/TruncatedFtCombos and the ftChoices
// subsampler changed, so v1 records describe a different search.
//
// v3: Spaces gained CutSubtrees/CutLeaves (subtree pruning), Filtered
// became engine-dependent (exact only on the no-prune path, which the
// fingerprint now separates), and TruncatedFtCombos moved to the
// deterministic pre-pass.
//
// v4: the subtree bound gained a compute floor for predictors declaring
// the costmodel.MonotoneLB capability and the advisory frontier is
// seeded before the search (insert-before-search), both of which change
// the Priced/Pruned/Cut accounting a record carries; custom cost
// functions additionally carry their monotone declaration in the key.
//
// v5: disk records gained a provenance envelope (builder version,
// fingerprint-chain key, optional deployment-salt HMAC — see
// plancache.PutBlob); a v4 raw record fails the envelope parse and
// loads as a miss. Bump plancache.DefaultBuilder together with this
// constant.
//
// v6: the operator-fusion pass landed. Fused expressions carry
// fusion metadata in their signature and records carry FusedOps, the
// fingerprint covers the active fusion rule set, and the kernel/cost
// model price chained contractions — so a v5 record (fused or not)
// describes plans priced by a different model.
//
// v7: the calibrated cost model landed. The fingerprint covers the
// active calibration tag (fit version + θ digest), a calibrated
// predictor's subtree compute floor became its prediction minus the
// observed over-estimate (changing the Pruned/Cut accounting a record
// carries; that floor has since gone, an accounting-only change), and
// estimates in a record may come from a refit model — so a v6 record
// describes plans priced by a fit this builder cannot name.
// Bump plancache.DefaultBuilder together with this constant.
//
// v8: device generations landed. The fingerprint gained an explicit
// generation component (Spec.GenerationKey: generation name + inter-chip
// interconnect descriptor) so plans can never cross device generations
// even when two specs share all per-core numbers, and the Spec itself
// grew the Interconnect field the scale-out partitioner prices transfers
// against — so a v7 record was keyed by a spec this builder renders
// differently. Bump plancache.DefaultBuilder together with this
// constant.
//
// Not a bump: a change that only moves the
// Priced/Pruned/Seeded/Cut*/Filtered accounting, while every key still
// names the same Pareto plans and estimates — the costmodel.WorkLB
// compute floor of the subtree bound is one, the leaf's estimate
// becoming its pruning bound another, dropping the frontier seeding
// (Seeded now reads 0; the work moved to in-shard leaves) a third, and
// dropping the per-step costmodel.MonotoneLB compute floor (the work
// floor bounds every prefix) a fourth. A record sealed before it
// carries the older counts, but its plans are the ones a search under
// the new bound returns, and bumping would retire every sealed record
// fleet-wide (and move TestGoldenKey's hex) for no wrong answer. With
// the monotone declaration gone, every custom cost function is opaque
// and the key lost its "|monotone" piece: only records sealed under a
// former monotone registration stop being hit, and every other key is
// byte-identical.
const resultFormat = 8

// Key derives the content-addressed cache key for one operator search —
// the identity of "the same search": two operators share a search (and a
// cached result) exactly when their keys are equal, which is what the
// t10 layer de-duplicates a model's operators by. It covers everything
// the search outcome depends on: the device, the constraints, the
// plan-construction config, whether a custom cost function overrides the
// fitted model for this operator (keyed by name — re-registering a
// different function under the same name is the caller's hazard; the
// t10 layer closes it by fixing the registration set at construction),
// and the operator's canonical shape signature.
//
// Every probe keys, so only the per-operator tail is hashed per call.
// The configuration head is encoded and absorbed into a SHA-256 state
// only when a field it covers changes (keyMemo); a call restores that
// midstate and writes the tail parts. SHA-256 absorbs its input front to
// back, and its state after the head — chaining words, the partial
// block and the byte count — depends on the head bytes alone, so
// resuming from it and writing the tail hashes exactly head‖tail: every
// key byte is the one plancache.Sum over the whole encoding gives.
func (s *Searcher) Key(e *expr.Expr) plancache.Key {
	m := s.keyHead()
	custom := ""
	if s.CM.HasCustom(e.Name) {
		custom = e.Name
	}
	h := keyHashers.Get().(*keyHasher)
	b := h.tail[:0]
	// the signature's length is unknown up front: leave it room
	if n := len(custom) + len(s.FusionRules) + len(s.Calibration) + 512; cap(b) < n {
		b = make([]byte, 0, n)
	}
	b = plancache.AppendPart(b, "custom=", custom)
	// fused and unfused plans must never collide, even for ops the
	// rule set happened to leave unfused — the rule set is part of
	// the compile regime
	b = plancache.AppendPart(b, "fusion=", s.FusionRules)
	// plans priced under different cost-model fits must never
	// collide either: the tag names the fit version and its θ
	// digest, so every refit retires the previous fit's records as
	// counted rejects across every cache tier
	b = plancache.AppendPart(b, "calib=", s.Calibration)
	// the signature is appended in place behind a length prefix
	// patched afterwards: AppendPart(b, e.Signature()) byte for byte
	n := len(b)
	b = e.AppendSignature(binary.LittleEndian.AppendUint64(b, 0))
	binary.LittleEndian.PutUint64(b[n:], uint64(len(b)-n-8))

	if err := h.d.(encoding.BinaryUnmarshaler).UnmarshalBinary(m.state); err != nil {
		panic(err) // the state was marshalled by the same digest type
	}
	h.d.Write(b)
	k := plancache.Key(h.d.Sum(h.sum[:0]))
	if cap(b) <= maxPooledTail {
		h.tail = b
	}
	keyHashers.Put(h)
	return k
}

// keyHashers pools Key's scratch. A keyHasher is tied to no Searcher:
// Key overwrites its whole digest state from the memo's midstate and
// truncates its tail buffer before use.
var keyHashers = sync.Pool{New: func() any { return &keyHasher{d: sha256.New()} }}

// maxPooledTail caps the tail buffer a keyHasher keeps: a Key under an
// unusually long fusion or calibration tag allocates its own rather
// than pinning a large buffer in the pool.
const maxPooledTail = 4 << 10

// keyHead returns the Searcher's key head memo, rebuilding it when a
// field it encodes has changed since.
func (s *Searcher) keyHead() *keyMemo {
	of := headFields{*s.Spec, s.Cons, s.Cfg}
	if m := s.head.Load(); m != nil && m.of == of {
		return m
	}
	var head []byte
	for _, p := range []string{
		fmt.Sprintf("t10-plan-v%d", resultFormat),
		// the generation component is explicit (not only implied by the
		// %#v spec dump) so cached plans can never cross device
		// generations, even for synthetic specs sharing every per-core
		// number but differing in name or inter-chip fabric
		"gen=" + of.spec.GenerationKey(),
		fmt.Sprintf("%#v", of.spec),
		fmt.Sprintf("cons|par=%g|pad=%g|ft=%d", of.cons.ParallelismMin, of.cons.PaddingMin, of.cons.MaxFtCombos),
		fmt.Sprintf("cfg|shiftbuf=%d", of.cfg.ShiftBufBytes),
		// retired engine modes, fixed at the one engine's values so
		// the key bytes stay those every sealed record is filed under
		"keepall=false",
		"noprune=false",
		"nosubtree=false",
	} {
		head = plancache.AppendPart(head, p)
	}
	d := sha256.New()
	d.Write(head)
	state, err := d.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err) // crypto/sha256 digests always marshal
	}
	m := &keyMemo{of: of, state: state}
	s.head.Store(m)
	return m
}

// A keyMemo is Key's head — as the SHA-256 state after absorbing its
// encoding — and the Searcher fields it encodes, compared whole on every
// call rather than built once: t10.New and the tests set them after
// New, and the Spec can change in place. A keyHasher is one Key call's
// digest and tail buffer, pooled so that a call allocates nothing.
type (
	headFields struct {
		spec device.Spec
		cons Constraints
		cfg  core.Config
	}
	keyMemo struct {
		of    headFields
		state []byte // the digest's marshalled midstate after the head
	}
	keyHasher struct {
		d    hash.Hash
		tail []byte
		sum  [sha256.Size]byte // Sum's output: a local would escape through the interface call
	}
)

// candidateRecord is the portable form of one priced plan: just the
// partition decisions and the estimate. decodeResult hands them to
// buildPlans — the path a cold search's Pareto survivors take too — so
// nothing derived is stored.
type candidateRecord struct {
	Fop []int         `json:"fop"`
	Fts [][]int       `json:"fts"`
	Est core.Estimate `json:"est"`
}

// resultRecord is the portable form of a Result. Records sealed by
// earlier v8 builders also carry a "complete" field (the Fig 18
// estimate, see CompleteSpace); it is deliberately undeclared here, and
// decoding ignores unknown fields, so those records stay hits.
type resultRecord struct {
	Format int               `json:"format"`
	Op     string            `json:"op"`
	Pareto []candidateRecord `json:"pareto"`
	Spaces
	ElapsedNs int64 `json:"elapsed_ns"` // original search cost
}

// encodeRecord is the encoder a cold search's record goes through; a
// test wraps it to count encodes.
var encodeRecord = encodeResult

// encodeResult serializes a Result for the disk layer.
func encodeResult(r *Result) ([]byte, error) {
	rec := resultRecord{
		Format:    resultFormat,
		Op:        r.Op,
		Spaces:    r.Spaces,
		ElapsedNs: r.Elapsed.Nanoseconds(),
	}
	rec.Pareto = make([]candidateRecord, len(r.Pareto))
	for i, c := range r.Pareto {
		fts := make([][]int, len(c.Plan.Tensors))
		for ti := range c.Plan.Tensors {
			fts[ti] = c.Plan.Tensors[ti].Ft
		}
		rec.Pareto[i] = candidateRecord{Fop: c.Plan.Fop, Fts: fts, Est: c.Est}
	}
	return json.Marshal(rec)
}

// decodeResult rehydrates a Result from a disk record, rebuilding every
// plan through buildPlans (core.NewPlan re-validates the partition
// decisions against the expression). Corrupt or stale records return an
// error and the caller falls back to a fresh search.
func decodeResult(e *expr.Expr, cfg core.Config, blob []byte) (*Result, error) {
	var rec resultRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		return nil, err
	}
	if rec.Format != resultFormat {
		return nil, fmt.Errorf("plan record format %d, want %d", rec.Format, resultFormat)
	}
	r := &Result{Op: rec.Op, Spaces: rec.Spaces, Elapsed: time.Duration(rec.ElapsedNs)}
	r.Pareto = make([]Candidate, len(rec.Pareto))
	for i, cr := range rec.Pareto {
		r.Pareto[i] = Candidate{Est: cr.Est, fop: cr.Fop, fts: cr.Fts}
	}
	if err := buildPlans(e, cfg, r.Pareto); err != nil {
		return nil, err
	}
	return r, nil
}
