package search

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Frontier is an incrementally maintained memory/time Pareto frontier
// (§4.3.1). Entries are kept sorted by MemPerCore strictly ascending
// with TotalNs strictly descending, so dominance queries are one binary
// search over a few dozen entries instead of a collect-all-then-sort
// pass at the end of the search.
//
// When candidates are inserted in enumeration order, the final frontier
// is exactly what paretoFront computes over the full candidate list —
// including the tie-breaking (first enumerated wins an exact (mem, time)
// tie) that keeps plan selection reproducible. The equivalence is
// property-tested against paretoFront.
type Frontier struct {
	ents []Candidate
}

// search returns the index of the first entry with memory > mem.
func (f *Frontier) search(mem int64) int {
	return sort.Search(len(f.ents), func(i int) bool {
		return f.ents[i].Est.MemPerCore > mem
	})
}

// Dominated reports whether a candidate with exact per-core memory mem
// and TotalNs ≥ lowerNs can never enter the frontier: some priced
// candidate already uses no more memory and no more time than the
// incoming one possibly could. Pruning on an admissible lower bound is
// safe — a rejected insert never alters the frontier, so skipping the
// candidate entirely leaves the final frontier bit-identical.
func (f *Frontier) Dominated(mem int64, lowerNs float64) bool {
	i := f.search(mem)
	// times decrease strictly with memory, so the best time among all
	// entries with memory ≤ mem is the last of them
	return i > 0 && f.ents[i-1].Est.TotalNs <= lowerNs
}

// Insert adds one priced candidate, returning whether it survived.
// Candidates must arrive in enumeration order for exact tie
// reproducibility: an existing entry wins an exact (mem, time) tie
// because it was enumerated first.
func (f *Frontier) Insert(c Candidate) bool {
	mem, t := c.Est.MemPerCore, c.Est.TotalNs
	i := f.search(mem)
	if i > 0 && f.ents[i-1].Est.TotalNs <= t {
		return false // dominated (or exact-tied) by an earlier entry
	}
	if i > 0 && f.ents[i-1].Est.MemPerCore == mem {
		// same memory, strictly faster: take the predecessor's slot
		i--
		f.ents[i] = c
	} else {
		f.ents = append(f.ents, Candidate{})
		copy(f.ents[i+1:], f.ents[i:])
		f.ents[i] = c
	}
	// drop successors the new entry dominates (time ≥ t at more memory)
	j := i + 1
	for j < len(f.ents) && f.ents[j].Est.TotalNs >= t {
		j++
	}
	if j > i+1 {
		f.ents = append(f.ents[:i+1], f.ents[j:]...)
	}
	return true
}

// Candidates returns the frontier sorted by memory ascending (time
// descending). The slice is owned by the frontier.
func (f *Frontier) Candidates() []Candidate { return f.ents }

// pruneFrontier shares a frontier of already-priced candidates across
// the search workers. It is advisory: pruning consults whatever subset
// of priced candidates has landed so far, and any subset yields only
// safe prunes, so the insertion order races between workers never
// affect the final Pareto set — only how many candidates it prunes.
//
// Reads vastly outnumber writes (every leaf and subtree bound queries
// dominance; each Fop shard writes once, when it ends), so the frontier
// is published as an immutable copy-on-write snapshot: dominated() is
// one atomic load plus a binary search, with no lock on the hot path,
// and add() serializes writers while copying the few dozen entries —
// once per shard, and only when a candidate enters the frontier.
type pruneFrontier struct {
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[Frontier]
}

func (pf *pruneFrontier) dominated(mem int64, lowerNs float64) bool {
	f := pf.snap.Load()
	return f != nil && f.Dominated(mem, lowerNs)
}

// add is a shard's one frontier write: it inserts cs, in enumeration
// order, into one copy of the snapshot and publishes the copy, then
// drops from cs, in place, every candidate the published frontier
// dominates under leafBound. It returns the kept candidates, still in
// enumeration order, and how many it dropped. A leaf is only ever
// dominated by a strictly faster candidate, and dominance is transitive
// through that bound, so the kept set does not depend on the order the
// candidates entered the frontier. When no candidate enters the
// frontier, nothing is copied and the snapshot stays.
func (pf *pruneFrontier) add(cs ...Candidate) (kept []Candidate, pruned int) {
	if len(cs) == 0 {
		return cs, 0
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	cur := pf.snap.Load()
	next := cur
	for i := range cs {
		c := &cs[i]
		if next != nil && next.Dominated(c.Est.MemPerCore, c.Est.TotalNs) {
			continue // Insert would reject it
		}
		if next == cur {
			next = &Frontier{}
			if cur != nil {
				next.ents = append(make([]Candidate, 0, len(cur.ents)+1), cur.ents...)
			}
		}
		next.Insert(*c)
	}
	if next != cur {
		pf.snap.Store(next)
	}
	kept = cs[:0]
	for i := range cs {
		if !next.Dominated(cs[i].Est.MemPerCore, leafBound(cs[i].Est)) {
			kept = append(kept, cs[i])
		}
	}
	return kept, len(cs) - len(kept)
}
