package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Epoch-delta framing: the live-observatory counterpart of the trace frames
// above. A watch subscription carries a sequence of delta frames, each one a
// complete DDP1 profile holding the dependences whose aggregates advanced
// during one epoch. The frame layer is deliberately ignorant of the payload —
// it moves opaque profile bytes with an epoch stamp and a final marker — so
// the DDP1 codec stays the single owner of the profile wire format and the
// concatenated frames decode-merge (dep.DecodeMerge) to the exact final
// profile.
//
// Wire layout per frame: uvarint body length, then body =
// [flags byte][uvarint epoch][payload bytes]. A zero-length body is the
// end-of-stream terminator, exactly like the trace framing, and the reader is
// hardened the same way: truncation surfaces as io.ErrUnexpectedEOF, unknown
// flag bits and oversized frames are rejected before allocation.

// DeltaFrame is one epoch's worth of new dependence aggregate.
type DeltaFrame struct {
	// Epoch is the epoch this delta closes: the profile covers instances
	// observed since the previous frame's epoch.
	Epoch uint32
	// Final marks the last frame of a session: the payload is the unshipped
	// remainder extracted from the merged final profile, so after folding it
	// the subscriber holds the session's exact end-of-run profile.
	Final bool
	// Payload is a complete DDP1 profile (possibly empty for a final frame
	// that has nothing left to ship).
	Payload []byte
}

const (
	deltaFlagFinal = 1 << 0
	deltaFlagsKnow = deltaFlagFinal
)

// DeltaWriter emits delta frames. Close writes the terminator; it does not
// close the underlying writer.
type DeltaWriter struct {
	w      io.Writer
	closed bool
}

// NewDeltaWriter returns a DeltaWriter emitting frames to w.
func NewDeltaWriter(w io.Writer) *DeltaWriter { return &DeltaWriter{w: w} }

// WriteFrame emits one frame.
func (dw *DeltaWriter) WriteFrame(f DeltaFrame) error {
	if dw.closed {
		return fmt.Errorf("trace: write on closed DeltaWriter")
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	var fl byte
	if f.Final {
		fl = deltaFlagFinal
	}
	body := 1 + binary.PutUvarint(hdr[1:], uint64(f.Epoch))
	hdr[0] = fl
	var pre [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], uint64(body+len(f.Payload)))
	if _, err := dw.w.Write(pre[:n]); err != nil {
		return err
	}
	if _, err := dw.w.Write(hdr[:body]); err != nil {
		return err
	}
	if len(f.Payload) == 0 {
		return nil
	}
	_, err := dw.w.Write(f.Payload)
	return err
}

// Close writes the end-of-stream terminator.
func (dw *DeltaWriter) Close() error {
	if dw.closed {
		return nil
	}
	dw.closed = true
	_, err := dw.w.Write([]byte{0})
	return err
}

// DeltaReader decodes a delta frame stream. Next returns io.EOF after the
// terminator; a transport EOF before it surfaces as an error wrapping
// io.ErrUnexpectedEOF.
type DeltaReader struct {
	br   *bufio.Reader
	max  int
	done bool
	err  error
}

// NewDeltaReader reads delta frames from r. maxFrame <= 0 selects
// DefaultMaxFrame.
func NewDeltaReader(r io.Reader, maxFrame int) *DeltaReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &DeltaReader{br: br, max: maxFrame}
}

// Next returns the next frame. The payload is freshly allocated and owned by
// the caller.
func (dr *DeltaReader) Next() (DeltaFrame, error) {
	var f DeltaFrame
	if dr.err != nil {
		return f, dr.err
	}
	if dr.done {
		return f, io.EOF
	}
	n, err := readFrameHeader(dr.br, "delta frame", dr.max)
	if err != nil {
		dr.err = err
		return f, err
	}
	if n == 0 {
		dr.done = true
		return f, io.EOF
	}
	ln := uint64(n)
	fl, err := dr.br.ReadByte()
	if err != nil {
		dr.err = fmt.Errorf("trace: reading delta frame flags: %w", noEOF(err))
		return f, dr.err
	}
	if fl&^byte(deltaFlagsKnow) != 0 {
		dr.err = fmt.Errorf("trace: delta frame: undefined flag bits %#x", fl)
		return f, dr.err
	}
	rest := countingReader{br: dr.br}
	epoch, err := binary.ReadUvarint(&rest)
	if err != nil {
		dr.err = fmt.Errorf("trace: reading delta frame epoch: %w", noEOF(err))
		return f, dr.err
	}
	if epoch > uint64(^uint32(0)) {
		dr.err = fmt.Errorf("trace: delta frame epoch %d overflows uint32", epoch)
		return f, dr.err
	}
	used := uint64(1) + rest.n
	if used > ln {
		dr.err = fmt.Errorf("trace: delta frame header exceeds body length %d", ln)
		return f, dr.err
	}
	f.Epoch = uint32(epoch)
	f.Final = fl&deltaFlagFinal != 0
	f.Payload = make([]byte, ln-used)
	if _, err := io.ReadFull(dr.br, f.Payload); err != nil {
		dr.err = fmt.Errorf("trace: reading delta frame payload: %w", noEOF(err))
		return f, dr.err
	}
	return f, nil
}

// Terminated reports whether the end-of-stream terminator was seen.
func (dr *DeltaReader) Terminated() bool { return dr.done }

// countingReader counts the bytes a varint decode consumes, so the payload
// length can be derived from the frame's total body length.
type countingReader struct {
	br *bufio.Reader
	n  uint64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}
