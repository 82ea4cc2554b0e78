package sig

import (
	"math"
	"testing"

	"ddprof/internal/loc"
)

// flatSig is the reference model the paged Signature is fuzzed against: the
// store as two flat slot arrays allocated in full, with the accuracy
// bookkeeping recomputed from first principles, and a record of which pages
// an update has reached.
type flatSig struct {
	m             uint64
	writes, reads []Slot
	track         bool
	tags          []uint64 // word address + 1 of each write slot's last writer
	bits          map[uint64]bool
	bmBits        uint64
	probes        uint64
	falseHits     uint64
	evictions     uint64
	pages         map[uint64]bool
}

func newFlatSig(m int, track bool) *flatSig {
	return &flatSig{
		m:      uint64(m),
		writes: make([]Slot, m),
		reads:  make([]Slot, m),
		track:  track,
		tags:   make([]uint64, m),
		bits:   make(map[uint64]bool),
		bmBits: max(uint64(m), 64),
		pages:  make(map[uint64]bool),
	}
}

func (f *flatSig) index(addr uint64) uint64 { return (addr >> 3) % f.m }

func (f *flatSig) lookupWrite(addr uint64) Slot {
	i := f.index(addr)
	s := f.writes[i]
	if f.track {
		f.probes++
		if !s.Empty() && f.tags[i] != (addr>>3)+1 {
			f.falseHits++
		}
	}
	return s
}

func (f *flatSig) setWrite(addr uint64, s Slot) {
	i := f.index(addr)
	if f.track {
		tag := (addr >> 3) + 1
		if f.tags[i] != 0 && f.tags[i] != tag {
			f.evictions++
		}
		f.tags[i] = tag
		f.bits[splitmix64(tag)%f.bmBits] = true
	}
	f.writes[i] = s
	f.pages[i/pageSlots] = true
}

func (f *flatSig) setRead(addr uint64, s Slot) {
	i := f.index(addr)
	f.reads[i] = s
	f.pages[i/pageSlots] = true
}

func (f *flatSig) remove(addr uint64) {
	i := f.index(addr)
	f.tags[i] = 0
	f.writes[i], f.reads[i] = Slot{}, Slot{}
}

// runOK is the geometry a run visitor accepts: word-aligned base and
// stride, and no element address wrapping past 2^64 in either direction.
func runOK(base, stride uint64, count uint32) bool {
	if base%8 != 0 || stride%8 != 0 {
		return false
	}
	a := base
	for j := uint32(1); j < count; j++ {
		next := a + stride
		if s := int64(stride); (s > 0 && next < a) || (s < 0 && next > a) {
			return false
		}
		a = next
	}
	return true
}

func (f *flatSig) occupied() int {
	n := 0
	for _, s := range f.writes {
		if !s.Empty() {
			n++
		}
	}
	return n
}

func (f *flatSig) accuracy() AccuracyStats {
	b := float64(f.bmBits)
	zero := max(f.bmBits-uint64(len(f.bits)), 1)
	return AccuracyStats{
		Slots:     int(f.m),
		Occupied:  f.occupied(),
		Distinct:  b * math.Log(b/float64(zero)),
		Probes:    f.probes,
		FalseHits: f.falseHits,
		Evictions: f.evictions,
	}
}

// opSlot is the slot the n-th recorded access stores: distinct per n, so a
// read from the wrong slot or a lost update shows.
func opSlot(n uint64) Slot {
	return PackSlot(loc.Pack(1, int(n%60000)+1), loc.VarID(n%1000), int32(n%7), uint32(n%5), n, n)
}

// sigOp is one decoded fuzz operation. Per-address ops use addr; run ops
// walk count elements from addr by stride.
type sigOp struct {
	kind   byte
	addr   uint64
	stride uint64
	count  uint32
}

const (
	opSetWrite = iota
	opSetRead
	opLookupWrite
	opLookupRead
	opRemove
	opWriteRun
	opReadRun
	numSigOps
)

// decodeSigOps turns fuzz bytes into operations. Each op is a kind byte
// (low bits: the op; bit 7: address counted down from 2^64; bit 6:
// unaligned address; bit 5: unaligned stride), a 16-bit word address, and
// for runs a signed 16-bit word stride and an 8-bit count.
func decodeSigOps(data []byte) []sigOp {
	var ops []sigOp
	for len(data) >= 3 {
		k := data[0]
		op := sigOp{kind: k % numSigOps, addr: uint64(data[1])<<11 | uint64(data[2])<<3}
		data = data[3:]
		if k&0x80 != 0 {
			op.addr = -op.addr - 8
		}
		if k&0x40 != 0 {
			op.addr += 4
		}
		if op.kind >= opWriteRun {
			if len(data) < 3 {
				break
			}
			op.stride = uint64(int64(int16(uint16(data[0])<<8|uint16(data[1]))) * 8)
			op.count = uint32(data[2])
			data = data[3:]
			if k&0x20 != 0 {
				op.stride += 4
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// encodeRun builds the fuzz bytes of one run op.
func encodeRun(kind byte, word uint16, strideWords int16, count uint8) []byte {
	return []byte{kind, byte(word >> 8), byte(word), byte(uint16(strideWords) >> 8), byte(strideWords), count}
}

// FuzzSignatureOps differentially checks the paged Signature against a flat
// two-array model over random operation sequences: every returned slot,
// every visitor observation, Occupancy, Bytes and (with tracking on) every
// Accuracy field must match, for slot counts around the page size.
func FuzzSignatureOps(f *testing.F) {
	var mixed []byte
	mixed = append(mixed, opSetWrite, 0, 3, opSetRead, 0, 3, opLookupWrite, 0, 3, opLookupRead, 4, 3)
	mixed = append(mixed, opRemove, 0, 3, opLookupWrite, 0, 3, opLookupRead, 0, 3)
	f.Add(mixed)
	f.Add(append(encodeRun(opWriteRun, 10, 1, 200), encodeRun(opReadRun, 10, 1, 200)...))      // ascending
	f.Add(append(encodeRun(opWriteRun, 4000, -3, 255), encodeRun(opReadRun, 3000, -1, 90)...)) // descending
	f.Add(append(encodeRun(opWriteRun, 7, 1029, 40), encodeRun(opReadRun, 7, -2049, 40)...))   // wrapping
	f.Add(append(encodeRun(opWriteRun|0x80, 1, 1, 9), encodeRun(opReadRun|0x80, 1, -1, 9)...)) // near 2^64
	f.Add(append(encodeRun(opWriteRun|0x40, 1, 1, 9), encodeRun(opReadRun|0x20, 1, 1, 9)...))  // unaligned

	sizes := []int{1, 7, pageSlots - 1, pageSlots, pageSlots + 1, 3*pageSlots + 5}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeSigOps(data)
		for _, m := range sizes {
			for _, track := range []bool{false, true} {
				checkSigOps(t, m, track, ops)
			}
		}
	})
}

func checkSigOps(t *testing.T, m int, track bool, ops []sigOp) {
	g := NewSignature(m)
	ref := newFlatSig(m, track)
	if track {
		g.EnableTracking()
	}
	type seen struct {
		j    uint32
		w, r Slot
	}
	var n uint64
	for k, op := range ops {
		n++
		switch op.kind {
		case opSetWrite:
			g.SetWrite(op.addr, opSlot(n))
			ref.setWrite(op.addr, opSlot(n))
		case opSetRead:
			g.SetRead(op.addr, opSlot(n))
			ref.setRead(op.addr, opSlot(n))
		case opLookupWrite:
			got, ok := g.LookupWrite(op.addr)
			want := ref.lookupWrite(op.addr)
			if got != want || ok != !want.Empty() {
				t.Fatalf("m=%d track=%v op %d: LookupWrite(%#x) = %+v,%v, want %+v", m, track, k, op.addr, got, ok, want)
			}
		case opLookupRead:
			got, ok := g.LookupRead(op.addr)
			want := ref.reads[ref.index(op.addr)]
			if got != want || ok != !want.Empty() {
				t.Fatalf("m=%d track=%v op %d: LookupRead(%#x) = %+v,%v, want %+v", m, track, k, op.addr, got, ok, want)
			}
		case opRemove:
			g.Remove(op.addr)
			ref.remove(op.addr)
		case opWriteRun, opReadRun:
			var got, want []seen
			base := n << 8
			var accepted bool
			if op.kind == opWriteRun {
				accepted = g.VisitWriteRun(op.addr, op.stride, op.count, func(j uint32, w, r Slot) Slot {
					got = append(got, seen{j, w, r})
					return opSlot(base + uint64(j))
				})
			} else {
				accepted = g.VisitReadRun(op.addr, op.stride, op.count, func(j uint32, w Slot) Slot {
					got = append(got, seen{j: j, w: w})
					return opSlot(base + uint64(j))
				})
			}
			wantOK := runOK(op.addr, op.stride, op.count)
			if accepted != wantOK {
				t.Fatalf("m=%d track=%v op %d: run base=%#x stride=%#x count=%d accepted=%v, want %v",
					m, track, k, op.addr, op.stride, op.count, accepted, wantOK)
			}
			if wantOK {
				a := op.addr
				for j := uint32(0); j < op.count; j++ {
					if op.kind == opWriteRun {
						w := ref.lookupWrite(a)
						want = append(want, seen{j, w, ref.reads[ref.index(a)]})
						ref.setWrite(a, opSlot(base+uint64(j)))
					} else {
						want = append(want, seen{j: j, w: ref.lookupWrite(a)})
						ref.setRead(a, opSlot(base+uint64(j)))
					}
					a += op.stride
				}
			}
			if len(got) != len(want) {
				t.Fatalf("m=%d track=%v op %d: run visited %d elements, want %d", m, track, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("m=%d track=%v op %d: run element %d saw %+v, want %+v", m, track, k, i, got[i], want[i])
				}
			}
		}

		occ := ref.occupied()
		if got, want := g.Occupancy(), float64(occ)/float64(m); got != want {
			t.Fatalf("m=%d track=%v op %d: Occupancy = %v, want %v", m, track, k, got, want)
		}
		if got, want := g.Bytes(), uint64(len(g.dir))*dirEntryBytes+uint64(len(ref.pages))*pageBytes; got != want {
			t.Fatalf("m=%d track=%v op %d: Bytes = %d, want %d (%d pages touched)", m, track, k, got, want, len(ref.pages))
		}
		st, ok := g.Accuracy()
		if ok != track {
			t.Fatalf("m=%d track=%v: Accuracy ok = %v", m, track, ok)
		}
		if track {
			if want := ref.accuracy(); st != want {
				t.Fatalf("m=%d op %d: Accuracy = %+v, want %+v", m, k, st, want)
			}
		}
	}
	for i := 0; i < m; i++ {
		c := g.peek(uint64(i))
		if c.w != ref.writes[i] || c.r != ref.reads[i] {
			t.Fatalf("m=%d track=%v: final slot %d = %+v, want w=%+v r=%+v", m, track, i, c, ref.writes[i], ref.reads[i])
		}
	}
}
