// Package sig implements signature-based memory-access recording, the
// paper's central space optimization (§III-B).
//
// A signature encodes an approximate representation of an unbounded set of
// elements with a bounded amount of state. Following the paper, ours is a
// fixed number of slots combined with a single hash function mapping memory
// addresses to slot indices. One hash function (rather than the k of a Bloom
// filter) keeps element *removal* possible, which variable-lifetime analysis
// requires. Each slot stores the metadata of the most recent access that
// hashed there; hash collisions therefore produce both false positives and
// false negatives in the profiled dependences, quantified in Table I.
//
// The slot count bounds the store; it is not an up-front allocation. Slots
// live on pages allocated the first time an access lands on them, so a
// profile pays memory (and page-fault time) only for the part of the
// signature its address footprint reaches, never more than the worst case
// MaxSignatureBytes. The optional accuracy-tracking sidecar (EnableTracking)
// is not paged: its per-slot tag array is allocated in full when tracking
// is switched on.
//
// The paper's slots are 4 bytes (a source line). Our slots carry additional
// metadata (variable, thread, loop-iteration context, timestamp) needed for
// the Table II and §V experiments, so a slot is three 64-bit words. Memory
// experiments report both actual (touched pages) and paper-modeled
// (4 B/slot over all m slots) sizes.
package sig

import (
	"ddprof/internal/loc"
)

// Slot is the access record stored per signature slot. The zero Slot means
// "empty". A populated slot always has the presence bit set in Meta, so a
// genuine access can never be mistaken for an empty slot.
type Slot struct {
	Meta  uint64 // present(1) | reduction(1) | induction(1) | thread(9) | var(20) | loc(32)
	Iter  uint64 // packed iteration vector of the enclosing loops
	CtxTS uint64 // ctxID(16) | timestamp(48)
}

const (
	presentBit   = uint64(1) << 63
	reductionBit = uint64(1) << 62
	inductionBit = uint64(1) << 61
)

// PackSlot builds a populated slot.
func PackSlot(l loc.SourceLoc, v loc.VarID, thread int32, ctx uint32, iterVec, ts uint64) Slot {
	meta := presentBit |
		(uint64(thread)&0x1FF)<<52 |
		(uint64(v)&0xFFFFF)<<32 |
		uint64(l)
	return Slot{
		Meta:  meta,
		Iter:  iterVec,
		CtxTS: (uint64(ctx)&0xFFFF)<<48 | (ts & 0xFFFFFFFFFFFF),
	}
}

// Empty reports whether the slot holds no access.
func (s Slot) Empty() bool { return s.Meta&presentBit == 0 }

// WithReduction marks the recorded access as part of a reduction statement
// (x = x ⊕ expr with ⊕ commutative-associative), which parallelism discovery
// uses to report reduction-parallelizable loops.
func (s Slot) WithReduction() Slot {
	s.Meta |= reductionBit
	return s
}

// Reduction reports whether the recorded access carries the reduction mark.
func (s Slot) Reduction() bool { return s.Meta&reductionBit != 0 }

// WithInduction marks the recorded access as an induction-variable update
// (i = i + step at a loop header). Such self-dependences are loop control —
// parallelization replaces them — so the engine does not let them count as
// parallelism-preventing carried dependences.
func (s Slot) WithInduction() Slot {
	s.Meta |= inductionBit
	return s
}

// Induction reports whether the recorded access carries the induction mark.
func (s Slot) Induction() bool { return s.Meta&inductionBit != 0 }

// Loc returns the recorded source location.
func (s Slot) Loc() loc.SourceLoc { return loc.SourceLoc(uint32(s.Meta)) }

// Var returns the recorded variable.
func (s Slot) Var() loc.VarID { return loc.VarID((s.Meta >> 32) & 0xFFFFF) }

// Thread returns the recorded target-program thread ID.
func (s Slot) Thread() int32 { return int32((s.Meta >> 52) & 0x1FF) }

// Ctx returns the recorded static loop-context ID.
func (s Slot) Ctx() uint32 { return uint32(s.CtxTS >> 48) }

// TS returns the recorded timestamp (48 bits).
func (s Slot) TS() uint64 { return s.CtxTS & 0xFFFFFFFFFFFF }

// Store abstracts how per-address access history is kept. The profiler's
// detection engine (Algorithm 1) runs against any Store; implementations are
// the approximate Signature below, the exact PerfectSignature, shadow memory
// (internal/shadow) and a bucketed hash table (internal/hashtab).
type Store interface {
	// LookupWrite returns the last-write record for addr, if present.
	LookupWrite(addr uint64) (Slot, bool)
	// LookupRead returns the last-read record for addr, if present.
	LookupRead(addr uint64) (Slot, bool)
	// SetWrite records s as the last write to addr.
	SetWrite(addr uint64, s Slot)
	// SetRead records s as the last read of addr.
	SetRead(addr uint64, s Slot)
	// Remove forgets addr entirely (variable-lifetime analysis).
	Remove(addr uint64)
	// Bytes returns the actual memory the store occupies.
	Bytes() uint64
	// ModeledBytes returns the store size under the paper's cost model
	// (4 bytes per signature slot; exact stores report their true size).
	ModeledBytes() uint64
}

// Signature is the approximate Store: m slots, each holding the last write
// and the last read of whatever addresses hash there, indexed by one
// locality-preserving hash of the address. On collision the newer access
// simply replaces the older one — no chaining — which is what makes it fast
// and bounded, at the price of Table I's FPR/FNR.
//
// The m slots are bounded but not resident up front: they are reached
// through a directory of fixed-size pages, and a page is allocated the first
// time an access is recorded into it. A lookup on an absent page answers
// empty, exactly as an untouched slot of a flat array would, so paging
// changes what a profile costs, never what it reports. A slot's write and
// read records sit side by side on one page, so Algorithm 1's LookupWrite →
// LookupRead → SetWrite on one index touches one page.
type Signature struct {
	dir   []*sigPage
	pages int // allocated (non-nil) directory entries
	m     uint64
	// trk, when non-nil, maintains live accuracy statistics (occupancy,
	// distinct-address estimate, slot conflicts) for Eq. (2) telemetry; see
	// accuracy.go. Off by default: one nil check per operation.
	trk *sigTrack
}

const (
	pageShift = 10
	pageSlots = 1 << pageShift // slots per page
	pageMask  = pageSlots - 1
	// pageBytes is one page's footprint: a write and a read Slot per slot.
	pageBytes = pageSlots * 2 * slotBytes
	// dirEntryBytes is one directory entry, a page pointer.
	dirEntryBytes = 8
)

// slotPair is one slot index's last-write and last-read records.
type slotPair struct{ w, r Slot }

type sigPage [pageSlots]slotPair

// NewSignature returns a signature with the given number of slots. Only the
// page directory is allocated here; pages come on first touch.
func NewSignature(slots int) *Signature {
	if slots < 1 {
		slots = 1
	}
	return &Signature{
		dir: make([]*sigPage, sigPages(uint64(slots))),
		m:   uint64(slots),
	}
}

// sigPages returns the directory length for m slots.
func sigPages(m uint64) uint64 { return (m + pageMask) >> pageShift }

// MaxSignatureBytes returns the footprint of a signature of the given slot
// count with every page touched: the directory plus all pages. Bytes never
// exceeds it, so it is the bound store-budget admission can rely on.
func MaxSignatureBytes(slots int) uint64 {
	n := sigPages(uint64(slots))
	return n * (dirEntryBytes + pageBytes)
}

// hash maps an address to a slot index: the word address modulo the slot
// count. The locality-preserving modulo is deliberate and matches the
// behaviour behind the paper's Table I: as soon as the signature has more
// slots than the target's (contiguous) address footprint, *no* collisions
// occur at all and FPR/FNR drop to exactly zero — which is how the paper
// reaches 0.00 at 1e8 slots. A scrambling hash would instead keep a floor
// of random cross-array collisions at every size. For footprints larger
// than the slot count, wraparound produces the systematic collisions the
// smaller Table I columns quantify, and Equation (2) models the uniform
// case.
func (g *Signature) hash(addr uint64) uint64 {
	return (addr >> 3) % g.m
}

// peek returns slot i's records for reading; an untouched page answers
// with the shared empty pair. It never allocates.
func (g *Signature) peek(i uint64) *slotPair {
	if p := g.dir[i>>pageShift]; p != nil {
		return &p[i&pageMask]
	}
	return &emptyPair
}

// emptyPair is peek's answer for an untouched page. Nothing writes it.
var emptyPair slotPair

// touch returns slot i's records for update, allocating the page on first
// touch. Pages never move or go away, so the pointer stays valid.
func (g *Signature) touch(i uint64) *slotPair {
	p := g.dir[i>>pageShift]
	if p == nil {
		p = new(sigPage)
		g.dir[i>>pageShift] = p
		g.pages++
	}
	return &p[i&pageMask]
}

// Slots returns the configured number of slots.
func (g *Signature) Slots() int { return int(g.m) }

// LookupWrite implements Store.
func (g *Signature) LookupWrite(addr uint64) (Slot, bool) {
	i := g.hash(addr)
	s := g.peek(i).w
	if g.trk != nil {
		g.trk.noteLookup(i, (addr>>3)+1, !s.Empty())
	}
	return s, !s.Empty()
}

// LookupRead implements Store.
func (g *Signature) LookupRead(addr uint64) (Slot, bool) {
	s := g.peek(g.hash(addr)).r
	return s, !s.Empty()
}

// SetWrite implements Store.
func (g *Signature) SetWrite(addr uint64, s Slot) {
	i := g.hash(addr)
	if g.trk != nil {
		g.trk.noteInsert(i, (addr>>3)+1)
	}
	g.touch(i).w = s
}

// SetRead implements Store.
func (g *Signature) SetRead(addr uint64, s Slot) { g.touch(g.hash(addr)).r = s }

// Remove implements Store: both records at the address's slot are cleared.
// Collided residents are cleared too — an accepted approximation, the same
// one the paper's removal makes. An untouched page is already empty and
// stays unallocated.
func (g *Signature) Remove(addr uint64) {
	i := g.hash(addr)
	if g.trk != nil {
		g.trk.noteRemove(i)
	}
	if p := g.dir[i>>pageShift]; p != nil {
		p[i&pageMask] = slotPair{}
	}
}

// Bytes implements Store: the page directory plus the allocated pages.
func (g *Signature) Bytes() uint64 {
	return uint64(len(g.dir))*dirEntryBytes + uint64(g.pages)*pageBytes
}

// ModeledBytes implements Store: the paper's 4 bytes/slot model (§VI-A:
// "each slot is four bytes. Thus 1.0E+8 slots consume only 382 MB").
func (g *Signature) ModeledBytes() uint64 { return g.m * 4 }

// Occupancy returns the fraction of non-empty write slots; used to validate
// the paper's Eq. (2) collision-probability prediction. With accuracy
// tracking enabled the incrementally maintained slot count answers in O(1);
// the untracked path scans the allocated pages, which the end-of-run
// occupancy publication would otherwise pay per worker inside the merge
// stage. Slots past m on the last page are never written, so they count as
// empty. The accuracy suite pins the two paths equal.
func (g *Signature) Occupancy() float64 {
	if g.trk != nil {
		return float64(g.trk.occupied) / float64(g.m)
	}
	used := 0
	for _, p := range g.dir {
		if p == nil {
			continue
		}
		for i := range p {
			if !p[i].w.Empty() {
				used++
			}
		}
	}
	return float64(used) / float64(g.m)
}

// PerfectSignature is the exact Store the paper uses as ground truth in
// §VI-A: "a table where each memory address has its own entry, so that false
// positives are never produced."
type PerfectSignature struct {
	writes map[uint64]Slot
	reads  map[uint64]Slot
}

// NewPerfectSignature returns an empty exact store.
func NewPerfectSignature() *PerfectSignature {
	return &PerfectSignature{
		writes: make(map[uint64]Slot),
		reads:  make(map[uint64]Slot),
	}
}

// LookupWrite implements Store.
func (p *PerfectSignature) LookupWrite(addr uint64) (Slot, bool) {
	s, ok := p.writes[addr]
	return s, ok
}

// LookupRead implements Store.
func (p *PerfectSignature) LookupRead(addr uint64) (Slot, bool) {
	s, ok := p.reads[addr]
	return s, ok
}

// SetWrite implements Store.
func (p *PerfectSignature) SetWrite(addr uint64, s Slot) { p.writes[addr] = s }

// SetRead implements Store.
func (p *PerfectSignature) SetRead(addr uint64, s Slot) { p.reads[addr] = s }

// Remove implements Store.
func (p *PerfectSignature) Remove(addr uint64) {
	delete(p.writes, addr)
	delete(p.reads, addr)
}

// Bytes implements Store: an estimate of the map footprint (key + slot +
// bucket overhead per entry).
func (p *PerfectSignature) Bytes() uint64 {
	const perEntry = 8 + 24 + 16
	return uint64(len(p.writes)+len(p.reads)) * perEntry
}

// ModeledBytes implements Store; exact stores have no separate model.
func (p *PerfectSignature) ModeledBytes() uint64 { return p.Bytes() }

// Addresses returns the number of distinct addresses currently recorded on
// the write side; used by experiments to report the "# addresses" column of
// Table I.
func (p *PerfectSignature) Addresses() int { return len(p.writes) }
