// Package trace records and replays instrumentation event streams.
//
// A Writer is itself a profiler hook: installed into the interpreter it
// serializes every memory access to a compact delta/varint encoding, so a
// target can be executed once and profiled many times offline (different
// signature sizes, different worker counts) by replaying the trace — the
// same run-once/analyze-often workflow the capture step of the Table I
// experiment uses in memory, made durable.
//
// Traces store the raw access stream, not program metadata; replaying
// reproduces all dependences exactly, while loop-carried classification
// additionally needs the program's loop table (events carry context IDs and
// iteration vectors, which remain meaningful alongside the original
// program).
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

const magic = "DDT1"

// Writer streams accesses to an io.Writer. It implements the interpreter's
// Hook interface, so it can be installed directly as the "profiler" of a
// recording run. Writers are not safe for concurrent use; record
// multi-threaded targets through SyncWriter (the serializing wrapper) or
// per-thread writers.
type Writer struct {
	bw    *bufio.Writer
	prev  event.Access
	count uint64
	err   error
}

// NewWriter starts a trace with the default 64KiB serialization buffer.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterSize(w, 0)
}

// NewWriterSize starts a trace with a size-byte serialization buffer. When w
// is a FrameWriter the buffer size is also the wire frame size — every buffer
// flush becomes exactly one frame — so it must stay within the receiving
// daemon's frame cap (DefaultMaxFrame unless configured otherwise). size <= 0
// selects the 64KiB default.
func NewWriterSize(w io.Writer, size int) (*Writer, error) {
	if size <= 0 {
		size = 1 << 16
	}
	bw := bufio.NewWriterSize(w, size)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	return &Writer{bw: bw}, nil
}

// Access implements the hook: serialize one event.
func (w *Writer) Access(a event.Access) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		if w.err != nil {
			return
		}
		n := binary.PutUvarint(buf[:], v)
		_, w.err = w.bw.Write(buf[:n])
	}
	putZig := func(v int64) {
		put(uint64((v << 1) ^ (v >> 63)))
	}
	w.err = w.bw.WriteByte(byte(a.Kind))
	// Addresses and timestamps are hot and local; delta-encode them.
	putZig(int64(a.Addr) - int64(w.prev.Addr))
	putZig(int64(a.TS) - int64(w.prev.TS))
	put(uint64(a.Loc))
	put(uint64(a.Var))
	put(uint64(a.CtxID))
	put(a.IterVec)
	put(uint64(a.Thread))
	if w.err == nil {
		w.err = w.bw.WriteByte(byte(a.Flags))
	}
	w.prev = a
	w.count++
}

// Count returns the number of events recorded so far.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes the trace; the Writer must not be used afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Err returns the first serialization error, if any.
func (w *Writer) Err() error { return w.err }

// SyncWriter is the serializing wrapper around Writer: a mutex-protected
// hook safe to install when the target program runs multiple threads, each
// of which calls the hook concurrently. The interleaving recorded is the one
// the run exhibited (per-address order is preserved because targets hold
// their own locks around conflicting accesses and the interpreter calls the
// hook inside the same lock region).
type SyncWriter struct {
	mu sync.Mutex
	w  *Writer
}

// NewSyncWriter wraps w; the underlying Writer must no longer be used
// directly while the wrapper is live.
func NewSyncWriter(w *Writer) *SyncWriter { return &SyncWriter{w: w} }

// Access implements the hook under the wrapper's mutex.
func (s *SyncWriter) Access(a event.Access) {
	s.mu.Lock()
	s.w.Access(a)
	s.mu.Unlock()
}

// Count returns the number of events recorded so far.
func (s *SyncWriter) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Count()
}

// Close flushes the underlying trace.
func (s *SyncWriter) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Close()
}

// Err returns the first serialization error, if any.
func (s *SyncWriter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Err()
}

// Reader decodes a trace stream one record at a time (NextRecord) or one
// chunk at a time (NextBatch, which ProfileTrace and the ddprofd server use
// to feed profilers) without buffering the whole trace.
//
// Reader is hardened against hostile input: a stream cut mid-record returns
// an error wrapping io.ErrUnexpectedEOF, and corrupt bytes (unknown event
// kinds, undefined flag bits, varint overflows) return descriptive errors.
// It never panics.
type Reader struct {
	br   ByteScanner
	prev event.Access
	n    uint64
	// batchCtl records whether the most recent NextBatch decoded any
	// control record; see BatchControl.
	batchCtl bool
}

// NewReader checks the stream magic and returns a Reader positioned at the
// first event. Inputs that already implement ByteScanner (a *bufio.Reader,
// the daemon's pooled frame stream) are decoded from directly; anything else
// is wrapped in a 64KiB bufio layer.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(ByteScanner)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	m := make([]byte, 4)
	if _, err := io.ReadFull(br, m); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", noEOF(err))
	}
	if string(m) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	return &Reader{br: br}, nil
}

// Count returns the number of events decoded so far.
func (r *Reader) Count() uint64 { return r.n }

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF; any other error
// (including io.ErrUnexpectedEOF itself) passes through.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Record is one decoded trace record: either a point access or a compressed
// strided run. Exactly one of the two is meaningful, selected by IsRange.
type Record struct {
	Access  event.Access
	Range   event.Range
	IsRange bool
}

// NextRecord decodes one record without expanding ranges (a range record is
// one compressed strided run on the wire). It returns io.EOF at a clean end
// of stream (a record boundary); a stream that ends inside a record returns
// an error wrapping io.ErrUnexpectedEOF instead. Count() advances by the
// element count of each record (a range counts as Count events).
func (r *Reader) NextRecord() (Record, error) {
	var rec Record
	kb, err := r.br.ReadByte()
	if err == io.EOF {
		return rec, io.EOF
	}
	if err != nil {
		return rec, err
	}
	if event.Kind(kb) == event.RangeRef {
		rec.Range, err = r.readRange()
		rec.IsRange = true
		return rec, err
	}
	if event.Kind(kb) > event.Flush && event.Kind(kb) != event.EpochMark {
		// Rebalance control kinds (Migrate/Install/Hold/Promote) are
		// pipeline-internal and never wire-legal; EpochMark is the one
		// control record clients may embed to cut epochs at workload
		// boundaries.
		return rec, fmt.Errorf("trace: event %d: invalid kind %d", r.n, kb)
	}
	rec.Access, err = r.readPoint(kb)
	return rec, err
}

func (r *Reader) get() (uint64, error) {
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, fmt.Errorf("trace: event %d truncated: %w", r.n, noEOF(err))
	}
	return v, nil
}

func (r *Reader) getZig() (int64, error) {
	u, err := r.get()
	return int64(u>>1) ^ -int64(u&1), err
}

// readPoint decodes the body of a point record whose kind byte kb has been
// consumed and validated.
func (r *Reader) readPoint(kb byte) (event.Access, error) {
	var a event.Access
	get := r.get
	getZig := r.getZig
	a.Kind = event.Kind(kb)
	dAddr, err := getZig()
	if err != nil {
		return a, err
	}
	a.Addr = uint64(int64(r.prev.Addr) + dAddr)
	dTS, err := getZig()
	if err != nil {
		return a, err
	}
	a.TS = uint64(int64(r.prev.TS) + dTS)
	var vals [5]uint64
	for i := range vals {
		if vals[i], err = get(); err != nil {
			return a, err
		}
	}
	a.Loc = loc.SourceLoc(vals[0])
	a.Var = loc.VarID(vals[1])
	a.CtxID = uint32(vals[2])
	a.IterVec = vals[3]
	a.Thread = int32(vals[4])
	fb, err := r.br.ReadByte()
	if err != nil {
		return a, fmt.Errorf("trace: event %d truncated: %w", r.n, noEOF(err))
	}
	if event.Flags(fb)&^(event.FlagReduction|event.FlagInduction) != 0 {
		return a, fmt.Errorf("trace: event %d: undefined flag bits %#x", r.n, fb)
	}
	a.Flags = event.Flags(fb)
	r.prev = a
	r.n++
	return a, nil
}
