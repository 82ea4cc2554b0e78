package sig

// Bulk signature access for range-compressed ingestion (internal/core's
// SD3 stride path). Walking a strided run through the per-address Store
// methods pays a hardware divide and a page lookup per element; the run
// visitors below hoist the hashing out of the element loop entirely — the
// slot index of element j+1 is the index of element j plus a constant word
// step, reduced mod m by one compare-and-subtract. The visitor callback sees
// exactly what the per-address path would: the current write (and, for
// writes, read) slot at the element's index, and its return value is
// installed just as SetWrite/SetRead would, paging in the slot's page on
// first touch.

// RunVisitor is implemented by stores that can walk a strided run with
// division-free index stepping. Both methods return false — having touched
// nothing — when the run's geometry doesn't allow it (unaligned base or
// stride, 2^64 address wraparound); the caller then falls back to the
// per-address Store methods.
type RunVisitor interface {
	// VisitWriteRun walks elements j = 0..count-1 at address base+j*stride,
	// calling visit with the resident write and read slots and installing the
	// returned slot as the element's last write.
	VisitWriteRun(base, stride uint64, count uint32, visit func(j uint32, write, read Slot) Slot) bool
	// VisitReadRun is the read-side analogue: visit sees the resident write
	// slot and its return value becomes the element's last read.
	VisitReadRun(base, stride uint64, count uint32, visit func(j uint32, write Slot) Slot) bool
}

// runStep validates a run's geometry against the division-free walk and
// returns the start index and per-element index step (already reduced mod m).
func (g *Signature) runStep(base, stride uint64, count uint32) (i, step uint64, ok bool) {
	if base%8 != 0 || stride%8 != 0 {
		return 0, 0, false
	}
	// Reject 2^64 wraparound: (base + j*stride)>>3 must decompose linearly.
	if count > 1 {
		n := uint64(count - 1)
		if s := int64(stride); s > 0 {
			if n > (^uint64(0)-base)/uint64(s) {
				return 0, 0, false
			}
		} else if s < 0 {
			if n > base/uint64(-s) {
				return 0, 0, false
			}
		}
	}
	i = (base >> 3) % g.m
	if s := int64(stride); s >= 0 {
		step = (uint64(s) >> 3) % g.m
	} else {
		// Descending runs step backwards: adding m - (|s|>>3 mod m) is the
		// same index walk without unsigned underflow.
		step = (g.m - (uint64(-s)>>3)%g.m) % g.m
	}
	return i, step, true
}

// VisitWriteRun implements RunVisitor.
func (g *Signature) VisitWriteRun(base, stride uint64, count uint32, visit func(j uint32, write, read Slot) Slot) bool {
	i, step, ok := g.runStep(base, stride, count)
	if !ok {
		return false
	}
	addr := base
	for j := uint32(0); j < count; j++ {
		c := g.touch(i)
		if g.trk != nil {
			g.trk.noteLookup(i, (addr>>3)+1, !c.w.Empty())
		}
		ns := visit(j, c.w, c.r)
		if g.trk != nil {
			g.trk.noteInsert(i, (addr>>3)+1)
		}
		c.w = ns
		addr += stride
		if i += step; i >= g.m {
			i -= g.m
		}
	}
	return true
}

// VisitReadRun implements RunVisitor.
func (g *Signature) VisitReadRun(base, stride uint64, count uint32, visit func(j uint32, write Slot) Slot) bool {
	i, step, ok := g.runStep(base, stride, count)
	if !ok {
		return false
	}
	addr := base
	for j := uint32(0); j < count; j++ {
		c := g.touch(i)
		if g.trk != nil {
			g.trk.noteLookup(i, (addr>>3)+1, !c.w.Empty())
		}
		c.r = visit(j, c.w)
		addr += stride
		if i += step; i >= g.m {
			i -= g.m
		}
	}
	return true
}

// VisitWriteRun implements RunVisitor for the exact per-address map. There
// is no index arithmetic to hoist, but accepting the bulk dispatch keeps SD3
// ranges on one code path and saves a map probe per element versus the
// elementwise fallback (two lookups + one store instead of three probes).
// Every geometry is accepted: map keys don't wrap.
func (p *PerfectSignature) VisitWriteRun(base, stride uint64, count uint32, visit func(j uint32, write, read Slot) Slot) bool {
	addr := base
	for j := uint32(0); j < count; j++ {
		p.writes[addr] = visit(j, p.writes[addr], p.reads[addr])
		addr += stride
	}
	return true
}

// VisitReadRun implements RunVisitor.
func (p *PerfectSignature) VisitReadRun(base, stride uint64, count uint32, visit func(j uint32, write Slot) Slot) bool {
	addr := base
	for j := uint32(0); j < count; j++ {
		p.reads[addr] = visit(j, p.writes[addr])
		addr += stride
	}
	return true
}
