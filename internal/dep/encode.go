package dep

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"ddprof/internal/loc"
)

// Binary profile format. The text format (Write/Parse) is the paper's
// human-readable output; the binary format is the compact on-disk form for
// toolchains, preserving what the text drops: instance counts, carried and
// reduction flags, and dependence distances. Layout (all integers varint
// unless noted):
//
//	magic "DDP1" (4 bytes)
//	varCount, then per variable: name (len-prefixed string)
//	loopCount, then per loop: begin, end, iterations
//	depCount, then per dependence:
//	    type (1 byte), sink, src, var, sinkThread+1, srcThread+1 (zigzag-free:
//	    threads are small non-negative), count, flags (1 byte:
//	    carried|reversed|reduction), minDist, maxDist
//
// Dependences are written in LessKey order, which makes the encoding
// canonical (two Sets with equal contents encode byte-identically) and lets
// readers merge-join streams without materializing either side — the
// profile-union primitive the sharded-fleet merge and ddiff ride on.
const binaryMagic = "DDP1"

// Encode writes the set, loop records and variable table in binary form.
func Encode(w io.Writer, s *Set, tab *loc.Table, loops []LoopRecord) error {
	return EncodeUnion(w, tab, loops, s)
}

// encoder wraps the shared varint/byte plumbing of the DDP1 writer.
type encoder struct {
	bw  *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func (e *encoder) put(v uint64) error {
	n := binary.PutUvarint(e.buf[:], v)
	_, err := e.bw.Write(e.buf[:n])
	return err
}

func (e *encoder) header(tab *loc.Table, loops []LoopRecord) error {
	if _, err := e.bw.WriteString(binaryMagic); err != nil {
		return err
	}
	// Variable table: IDs are dense, so emit names in ID order.
	nv := tab.NumVars()
	if err := e.put(uint64(nv)); err != nil {
		return err
	}
	for i := 0; i < nv; i++ {
		name := tab.VarName(loc.VarID(i))
		if err := e.put(uint64(len(name))); err != nil {
			return err
		}
		if _, err := e.bw.WriteString(name); err != nil {
			return err
		}
	}
	if err := e.put(uint64(len(loops))); err != nil {
		return err
	}
	for _, l := range loops {
		if err := e.put(uint64(l.Begin)); err != nil {
			return err
		}
		if err := e.put(uint64(l.End)); err != nil {
			return err
		}
		if err := e.put(l.Iterations); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoder) record(k Key, st Stats) error {
	if err := e.bw.WriteByte(byte(k.Type)); err != nil {
		return err
	}
	for _, v := range []uint64{
		uint64(k.Sink), uint64(k.Src), uint64(k.Var),
		uint64(k.SinkThread) + 1, uint64(k.SrcThread) + 1,
		st.Count,
	} {
		if err := e.put(v); err != nil {
			return err
		}
	}
	var fl byte
	if st.Carried {
		fl |= 1
	}
	if st.Reversed {
		fl |= 2
	}
	if st.Reduction {
		fl |= 4
	}
	if err := e.bw.WriteByte(fl); err != nil {
		return err
	}
	if err := e.put(uint64(st.MinDist)); err != nil {
		return err
	}
	return e.put(uint64(st.MaxDist))
}

// EncodeUnion streams the union of the shards as one binary profile,
// byte-identical to Encode of the serially merged set, without building that
// merged set: each shard's entries are walked in canonical (LessKey) order
// and the shard cursors merge-joined, folding the stats of keys present in
// several shards on the fly. Shards are read-only; passing a single shard is
// exactly Encode. This is the wire side of the profile-union primitive: a
// fleet node unions per-shard profiles straight onto the socket.
func EncodeUnion(w io.Writer, tab *loc.Table, loops []LoopRecord, shards ...*Set) error {
	e := &encoder{bw: bufio.NewWriter(w)}
	if err := e.header(tab, loops); err != nil {
		return err
	}
	// Per-shard cursor over entry refs in canonical key order. The entries
	// themselves stay in their slabs; only the ref permutations are built.
	refs := make([][]int, 0, len(shards))
	live := make([]*Set, 0, len(shards))
	for _, s := range shards {
		if s == nil || s.n == 0 {
			continue
		}
		rs := make([]int, s.n)
		for i := range rs {
			rs[i] = i
		}
		sh := s
		sort.Slice(rs, func(i, j int) bool {
			return LessKey(sh.at(rs[i]).key, sh.at(rs[j]).key)
		})
		refs = append(refs, rs)
		live = append(live, s)
	}

	// The record count precedes the records, so walk the join twice: once
	// counting distinct keys, once writing. Both passes are cache-linear
	// over the slabs; nothing per-key is allocated.
	walk := func(f func(Key, Stats) error) error {
		pos := make([]int, len(refs))
		for {
			mi := -1
			var mk Key
			for i, rs := range refs {
				if pos[i] >= len(rs) {
					continue
				}
				k := live[i].at(rs[pos[i]]).key
				if mi < 0 || LessKey(k, mk) {
					mi, mk = i, k
				}
			}
			if mi < 0 {
				return nil
			}
			st := newStats()
			for i, rs := range refs {
				if pos[i] < len(rs) && live[i].at(rs[pos[i]]).key == mk {
					st.fold(&live[i].at(rs[pos[i]]).stats)
					pos[i]++
				}
			}
			if err := f(mk, st); err != nil {
				return err
			}
		}
	}
	distinct := 0
	if err := walk(func(Key, Stats) error { distinct++; return nil }); err != nil {
		return err
	}
	if err := e.put(uint64(distinct)); err != nil {
		return err
	}
	if err := walk(e.record); err != nil {
		return err
	}
	return e.bw.Flush()
}

// LessKey is the canonical dependence order (sink, source, type, variable,
// threads) that every deterministic rendering and encoding uses.
func LessKey(a, b Key) bool {
	if a.Sink != b.Sink {
		return a.Sink < b.Sink
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	if a.Var != b.Var {
		return a.Var < b.Var
	}
	if a.SinkThread != b.SinkThread {
		return a.SinkThread < b.SinkThread
	}
	return a.SrcThread < b.SrcThread
}

// Decoder streams dependence records out of a binary profile one at a time.
// The header (variable table, loop records, record count) is consumed by
// NewDecoder; each Next returns one dependence without the profile ever
// being materialized as a map — a million-dependence stored profile costs
// the reader one record of state.
type Decoder struct {
	br    *bufio.Reader
	tab   *loc.Table
	loops []LoopRecord
	n     uint64
	read  uint64
}

// NewDecoder reads the profile header and positions the stream at the first
// dependence record.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dep: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("dep: bad magic %q", magic)
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }

	tab := loc.NewTable()
	nv, err := get()
	if err != nil {
		return nil, err
	}
	if nv > 1<<24 {
		return nil, fmt.Errorf("dep: implausible variable count %d", nv)
	}
	for i := uint64(0); i < nv; i++ {
		ln, err := get()
		if err != nil {
			return nil, err
		}
		if ln > 1<<16 {
			return nil, fmt.Errorf("dep: implausible name length %d", ln)
		}
		name := make([]byte, ln)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		tab.Var(string(name)) // IDs reassigned densely in the same order
	}

	nl, err := get()
	if err != nil {
		return nil, err
	}
	if nl > 1<<24 {
		return nil, fmt.Errorf("dep: implausible loop count %d", nl)
	}
	loops := make([]LoopRecord, 0, nl)
	for i := uint64(0); i < nl; i++ {
		var l LoopRecord
		v, err := get()
		if err != nil {
			return nil, err
		}
		l.Begin = loc.SourceLoc(v)
		if v, err = get(); err != nil {
			return nil, err
		}
		l.End = loc.SourceLoc(v)
		if l.Iterations, err = get(); err != nil {
			return nil, err
		}
		loops = append(loops, l)
	}

	nd, err := get()
	if err != nil {
		return nil, err
	}
	if nd > 1<<28 {
		return nil, fmt.Errorf("dep: implausible dependence count %d", nd)
	}
	return &Decoder{br: br, tab: tab, loops: loops, n: nd}, nil
}

// Table returns the interned variable table from the profile header.
func (d *Decoder) Table() *loc.Table { return d.tab }

// Loops returns the loop records from the profile header.
func (d *Decoder) Loops() []LoopRecord { return d.loops }

// Len returns the number of dependence records in the profile.
func (d *Decoder) Len() int { return int(d.n) }

// Next returns the next dependence record, or io.EOF after the last one. An
// unexpected end of input mid-record surfaces as io.ErrUnexpectedEOF.
func (d *Decoder) Next() (Key, Stats, error) {
	if d.read >= d.n {
		return Key{}, Stats{}, io.EOF
	}
	d.read++
	tb, err := d.br.ReadByte()
	if err != nil {
		return Key{}, Stats{}, noEOF(err)
	}
	var vals [6]uint64
	for j := range vals {
		if vals[j], err = binary.ReadUvarint(d.br); err != nil {
			return Key{}, Stats{}, noEOF(err)
		}
	}
	fl, err := d.br.ReadByte()
	if err != nil {
		return Key{}, Stats{}, noEOF(err)
	}
	minD, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Key{}, Stats{}, noEOF(err)
	}
	maxD, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Key{}, Stats{}, noEOF(err)
	}
	k := Key{
		Type: Type(tb),
		Sink: loc.SourceLoc(vals[0]), Src: loc.SourceLoc(vals[1]),
		Var:        loc.VarID(vals[2]),
		SinkThread: int16(vals[3] - 1), SrcThread: int16(vals[4] - 1),
	}
	st := Stats{
		Count:     vals[5],
		Carried:   fl&1 != 0,
		Reversed:  fl&2 != 0,
		Reduction: fl&4 != 0,
		MinDist:   uint32(minD),
		MaxDist:   uint32(maxD),
	}
	return k, st, nil
}

// noEOF converts a clean EOF inside a record (the stream promised more
// records than it delivered) into ErrUnexpectedEOF, so only Decoder.Next's
// own end-of-stream sentinel ever reads as io.EOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// DecodeMerge streams a binary profile and folds every record into an
// existing Set — the decode side of the profile-union primitive: a fleet
// merger calls it once per shard profile against one accumulator, never
// holding more than one wire record beyond the accumulator itself. The
// profile's loop records and variable table are returned for the caller to
// reconcile.
func DecodeMerge(r io.Reader, into *Set) ([]LoopRecord, *loc.Table, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, nil, err
	}
	for {
		k, st, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		into.Ref(k).fold(&st)
		into.addInstances(st.Count)
	}
	return d.loops, d.tab, nil
}

// Decode reads a binary profile written by Encode.
func Decode(r io.Reader) (*Set, []LoopRecord, *loc.Table, error) {
	set := NewSet()
	loops, tab, err := DecodeMerge(r, set)
	if err != nil {
		return nil, nil, nil, err
	}
	return set, loops, tab, nil
}
