package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Length-prefixed framing for trace streams in transit.
//
// The ddprofd wire protocol carries a DDT1 trace as a sequence of frames:
// a uvarint payload length followed by that many bytes, terminated by a
// zero-length frame. Framing gives the server a bounded ingest unit (frames
// larger than a configured cap are rejected before allocation) and gives the
// client an explicit end-of-stream marker that is distinguishable from a
// dropped connection — a plain DDT1 stream ends only by EOF, which over a
// socket is indistinguishable from a crash mid-record.

// DefaultMaxFrame caps the payload size of one frame unless configured
// otherwise.
const DefaultMaxFrame = 1 << 20

// ErrFrameTooLarge is wrapped by frame-header errors when a frame exceeds
// the configured cap.
var ErrFrameTooLarge = errors.New("frame exceeds size limit")

// ReadFrameHeader reads one frame header from r and returns the payload
// length that follows it; 0 is the end-of-stream terminator. A header cut
// short by EOF is an error wrapping io.ErrUnexpectedEOF, and a length above
// maxFrame one wrapping ErrFrameTooLarge, rejected before the caller
// allocates anything. Every reader of framed streams goes through here.
func ReadFrameHeader(r io.ByteReader, maxFrame int) (int, error) {
	return readFrameHeader(r, "frame", maxFrame)
}

// readFrameHeader is ReadFrameHeader with the frame kind named in the error
// text ("frame", "delta frame").
func readFrameHeader(r io.ByteReader, kind string, maxFrame int) (int, error) {
	ln, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("trace: reading %s header: %w", kind, noEOF(err))
	}
	if ln > uint64(maxFrame) {
		return 0, fmt.Errorf("trace: %s of %d bytes: %w", kind, ln, ErrFrameTooLarge)
	}
	return int(ln), nil
}

// FrameWriter chops a byte stream into length-prefixed frames. Each Write
// becomes exactly one frame; Close emits the zero-length terminator.
type FrameWriter struct {
	w      io.Writer
	closed bool
}

// NewFrameWriter returns a FrameWriter emitting frames to w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Write implements io.Writer: one call, one frame. Empty writes are
// suppressed (a zero-length frame is the terminator, written by Close).
func (f *FrameWriter) Write(p []byte) (int, error) {
	if f.closed {
		return 0, errors.New("trace: write on closed FrameWriter")
	}
	if len(p) == 0 {
		return 0, nil
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(p)))
	if _, err := f.w.Write(hdr[:n]); err != nil {
		return 0, err
	}
	return f.w.Write(p)
}

// Close writes the end-of-stream frame. It does not close the underlying
// writer.
func (f *FrameWriter) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	_, err := f.w.Write([]byte{0})
	return err
}

// FrameReader reassembles a framed stream: Read returns payload bytes and
// io.EOF after the zero-length terminator frame. A transport EOF before the
// terminator surfaces as an error wrapping io.ErrUnexpectedEOF, so a peer
// that dies mid-stream is never mistaken for a clean end.
type FrameReader struct {
	br        *bufio.Reader
	max       int
	remaining int
	done      bool
	err       error
}

// NewFrameReader reads frames from r. maxFrame <= 0 selects
// DefaultMaxFrame.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameReader{br: br, max: maxFrame}
}

// Read implements io.Reader over the concatenated frame payloads.
func (f *FrameReader) Read(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	if f.done {
		return 0, io.EOF
	}
	if f.remaining == 0 {
		ln, err := ReadFrameHeader(f.br, f.max)
		if err != nil {
			f.err = err
			return 0, err
		}
		if ln == 0 {
			f.done = true
			return 0, io.EOF
		}
		f.remaining = ln
	}
	if len(p) > f.remaining {
		p = p[:f.remaining]
	}
	n, err := f.br.Read(p)
	f.remaining -= n
	if err != nil {
		f.err = fmt.Errorf("trace: reading frame payload: %w", noEOF(err))
		if n > 0 {
			return n, nil
		}
		return 0, f.err
	}
	return n, nil
}

// Terminated reports whether the end-of-stream frame was seen.
func (f *FrameReader) Terminated() bool { return f.done }
