package sig

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"ddprof/internal/loc"
)

func TestSlotPackUnpack(t *testing.T) {
	l := loc.Pack(1, 60)
	s := PackSlot(l, 17, 3, 42, 0xDEADBEEF, 123456)
	if s.Empty() {
		t.Fatal("packed slot reports empty")
	}
	if s.Loc() != l {
		t.Errorf("Loc = %v, want %v", s.Loc(), l)
	}
	if s.Var() != 17 {
		t.Errorf("Var = %d", s.Var())
	}
	if s.Thread() != 3 {
		t.Errorf("Thread = %d", s.Thread())
	}
	if s.Ctx() != 42 {
		t.Errorf("Ctx = %d", s.Ctx())
	}
	if s.Iter != 0xDEADBEEF {
		t.Errorf("Iter = %#x", s.Iter)
	}
	if s.TS() != 123456 {
		t.Errorf("TS = %d", s.TS())
	}
}

func TestSlotZeroIsEmpty(t *testing.T) {
	var s Slot
	if !s.Empty() {
		t.Fatal("zero slot must be empty")
	}
	// Even an access with all-zero metadata must not look empty.
	s = PackSlot(0, 0, 0, 0, 0, 0)
	if s.Empty() {
		t.Fatal("packed slot with zero fields must still be present")
	}
}

func TestSlotPackProperty(t *testing.T) {
	f := func(line uint16, v uint16, thr uint8, ctx uint16, iter uint64, ts uint32) bool {
		l := loc.Pack(1, int(line))
		s := PackSlot(l, loc.VarID(v), int32(thr), uint32(ctx), iter, uint64(ts))
		return s.Loc() == l &&
			s.Var() == loc.VarID(v) &&
			s.Thread() == int32(thr) &&
			s.Ctx() == uint32(ctx) &&
			s.Iter == iter &&
			s.TS() == uint64(ts) &&
			!s.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// storeImpl runs a common conformance suite against any Store.
func runStoreConformance(t *testing.T, name string, st Store) {
	t.Helper()
	a, b := uint64(0x1000), uint64(0x2008)
	if _, ok := st.LookupWrite(a); ok {
		t.Fatalf("%s: fresh store has write entry", name)
	}
	if _, ok := st.LookupRead(a); ok {
		t.Fatalf("%s: fresh store has read entry", name)
	}

	w := PackSlot(loc.Pack(1, 10), 1, 0, 0, 0, 1)
	st.SetWrite(a, w)
	got, ok := st.LookupWrite(a)
	if !ok || got.Loc() != w.Loc() {
		t.Fatalf("%s: write lookup after set failed", name)
	}

	r := PackSlot(loc.Pack(1, 20), 2, 0, 0, 0, 2)
	st.SetRead(a, r)
	got, ok = st.LookupRead(a)
	if !ok || got.Loc() != r.Loc() {
		t.Fatalf("%s: read lookup after set failed", name)
	}

	// Writes and reads are independent sides.
	got, _ = st.LookupWrite(a)
	if got.Loc() != w.Loc() {
		t.Fatalf("%s: read set clobbered write side", name)
	}

	// Overwrite replaces.
	w2 := PackSlot(loc.Pack(1, 30), 1, 0, 0, 0, 3)
	st.SetWrite(a, w2)
	got, _ = st.LookupWrite(a)
	if got.Loc() != w2.Loc() {
		t.Fatalf("%s: overwrite did not replace", name)
	}

	// Distinct address unaffected (addresses chosen to avoid collision in
	// the small-signature case is not guaranteed; use big signature).
	st.SetWrite(b, w)
	if got, _ := st.LookupWrite(a); got.Loc() != w2.Loc() {
		t.Fatalf("%s: setting b clobbered a", name)
	}

	// Remove clears both sides.
	st.Remove(a)
	if _, ok := st.LookupWrite(a); ok {
		t.Fatalf("%s: write survives Remove", name)
	}
	if _, ok := st.LookupRead(a); ok {
		t.Fatalf("%s: read survives Remove", name)
	}
	if _, ok := st.LookupWrite(b); !ok {
		t.Fatalf("%s: Remove(a) destroyed b", name)
	}

	if st.Bytes() == 0 {
		t.Fatalf("%s: Bytes() = 0", name)
	}
	if st.ModeledBytes() == 0 {
		t.Fatalf("%s: ModeledBytes() = 0", name)
	}
}

func TestSignatureConformance(t *testing.T) {
	runStoreConformance(t, "Signature", NewSignature(1<<20))
}

func TestPerfectSignatureConformance(t *testing.T) {
	runStoreConformance(t, "PerfectSignature", NewPerfectSignature())
}

func TestSignatureCollisionsReplace(t *testing.T) {
	g := NewSignature(1) // everything collides
	a := PackSlot(loc.Pack(1, 1), 1, 0, 0, 0, 0)
	b := PackSlot(loc.Pack(1, 2), 2, 0, 0, 0, 0)
	g.SetWrite(100, a)
	g.SetWrite(200, b)
	// Membership check for 100 now returns b's record: a false positive of
	// exactly the kind Table I quantifies.
	got, ok := g.LookupWrite(100)
	if !ok {
		t.Fatal("expected (false-positive) hit")
	}
	if got.Loc() != b.Loc() {
		t.Error("collision should replace the older record")
	}
}

func TestSignatureNoFalseNegativeWithoutCollision(t *testing.T) {
	// With slots >> addresses and no removal, every inserted address must be
	// found: signatures only err through collisions.
	g := NewSignature(1 << 16)
	for i := uint64(0); i < 1000; i++ {
		g.SetWrite(i*64, PackSlot(loc.Pack(1, int(i)), 0, 0, 0, 0, 0))
	}
	for i := uint64(0); i < 1000; i++ {
		if _, ok := g.LookupWrite(i * 64); !ok {
			t.Fatalf("address %d lost without any removal", i*64)
		}
	}
}

func TestSignatureMinimumSlots(t *testing.T) {
	g := NewSignature(0)
	if g.Slots() != 1 {
		t.Errorf("Slots() = %d, want clamp to 1", g.Slots())
	}
	g.SetWrite(5, PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0))
	if _, ok := g.LookupWrite(5); !ok {
		t.Error("single-slot signature must still function")
	}
}

func TestSignatureBytes(t *testing.T) {
	const m = 3*pageSlots + 5
	g := NewSignature(m)
	dir := uint64(4 * dirEntryBytes)
	if g.Bytes() != dir {
		t.Fatalf("fresh Bytes = %d, want only the %d-byte directory", g.Bytes(), dir)
	}
	s := PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0)
	// Lookups and removes on untouched pages allocate nothing.
	g.LookupWrite(addr(5))
	g.LookupRead(addr(5))
	g.Remove(addr(5))
	if g.Bytes() != dir {
		t.Fatalf("Bytes after lookups/removes = %d, want %d", g.Bytes(), dir)
	}
	// Each first-touched page adds exactly one page; touching it again,
	// on either side, adds nothing.
	for p := 0; p < 4; p++ {
		g.SetWrite(addr(p*pageSlots), s)
		want := dir + uint64(p+1)*pageBytes
		if g.Bytes() != want {
			t.Fatalf("after touching page %d: Bytes = %d, want %d", p, g.Bytes(), want)
		}
		g.SetRead(addr(p*pageSlots+1), s)
		g.SetWrite(addr(p*pageSlots+2), s)
		if g.Bytes() != want {
			t.Fatalf("retouching page %d: Bytes = %d, want %d", p, g.Bytes(), want)
		}
	}

	// A fully touched signature stays within its spec's admission estimate.
	for _, m := range []int{1, 7, pageSlots - 1, pageSlots, pageSlots + 1, 1000, 3*pageSlots + 5} {
		g := NewSignature(m)
		for i := 0; i < m; i++ {
			g.SetWrite(addr(i), s)
			g.SetRead(addr(i), s)
		}
		est, bounded, err := EstimateStoreBytes(fmt.Sprintf("signature:slots=%d", m), 0)
		if err != nil || !bounded {
			t.Fatalf("m=%d: estimate %d, %v, %v", m, est, bounded, err)
		}
		if g.Bytes() > est {
			t.Errorf("m=%d: fully touched Bytes = %d exceeds estimate %d", m, g.Bytes(), est)
		}
	}

	if g := NewSignature(1000); g.ModeledBytes() != 4000 {
		t.Errorf("ModeledBytes = %d, want paper's 4 B/slot", g.ModeledBytes())
	}
	// Paper's example: 1e8 slots -> 382 MB.
	big := &Signature{m: 1e8}
	if mb := float64(big.ModeledBytes()) / (1 << 20); mb < 381 || mb > 382 {
		t.Errorf("1e8 slots modeled as %.1f MB, paper says ~382 MB", mb)
	}
}

// TestSignatureAllocatesLazily guards the paging: a default-sized
// signature must cost its directory, not its slots, until it is used.
func TestSignatureAllocatesLazily(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewSignature(1 << 21)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Fatalf("NewSignature(1<<21) allocated %d bytes, want < 64 KiB", d)
	}
}

func TestSignatureOccupancy(t *testing.T) {
	g := NewSignature(100)
	if g.Occupancy() != 0 {
		t.Fatal("fresh signature occupancy != 0")
	}
	s := PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0)
	seen := map[uint64]bool{}
	for i := uint64(0); i < 50; i++ {
		g.SetWrite(i, s)
		seen[g.hash(i)] = true
	}
	want := float64(len(seen)) / 100
	if got := g.Occupancy(); got != want {
		t.Errorf("Occupancy = %v, want %v", got, want)
	}
}

func TestPerfectSignatureAddresses(t *testing.T) {
	p := NewPerfectSignature()
	s := PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0)
	for i := uint64(0); i < 7; i++ {
		p.SetWrite(i, s)
		p.SetWrite(i, s) // duplicates don't double-count
	}
	if p.Addresses() != 7 {
		t.Errorf("Addresses = %d, want 7", p.Addresses())
	}
	p.Remove(3)
	if p.Addresses() != 6 {
		t.Errorf("Addresses after Remove = %d, want 6", p.Addresses())
	}
}

func TestSignatureHashUniformity(t *testing.T) {
	// Sequential word addresses (the common case: array sweeps) must spread
	// across slots, not cluster. Chi-squared-ish sanity check.
	g := NewSignature(1024)
	counts := make([]int, 1024)
	for i := uint64(0); i < 64*1024; i++ {
		counts[g.hash(0x10000+i*8)]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	// Expected 64 per slot; a pathological hash would leave empty slots or
	// hot slots orders of magnitude over.
	if min == 0 || max > 64*4 {
		t.Errorf("hash poorly distributed: min=%d max=%d (expected ~64)", min, max)
	}
}
