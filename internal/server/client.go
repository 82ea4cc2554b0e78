package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"ddprof/internal/dep"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/trace"
	"ddprof/internal/vm"
)

// ClientOptions configure one remote profiling session.
type ClientOptions struct {
	// Workers is the per-session pipeline worker hint; 0 asks for the
	// server's default.
	Workers int
	// Backend requests a store spec for the session ("perfect",
	// "hybrid:exact=4096", ...), resolved against the daemon's backend
	// registry and memory budget; empty accepts the daemon's default.
	Backend string
	// MT records timestamps and requests race checking — set when the
	// target program is multi-threaded.
	MT bool
	// SchedulerFuzz is passed to the interpreter (ModeMT visibility fuzz).
	SchedulerFuzz int
	// FrameBytes sizes the trace writer's serialization buffer — and since
	// every buffer flush becomes one wire frame, the frame size the daemon
	// decodes in one batch. Larger frames amortize framing and decode
	// overhead; they must stay within the daemon's frame cap (1MiB by
	// default). 0 selects the 64KiB default.
	FrameBytes int
	// Timeout bounds every socket read and write. Default 60s.
	Timeout time.Duration
}

// RemoteResult is the outcome of a remote profiling session.
type RemoteResult struct {
	// Deps is the dependence set profiled by the daemon.
	Deps *dep.Set
	// Tab maps the variable IDs in Deps back to names (decoded from the
	// daemon's response; identical to the target program's own table).
	Tab *loc.Table
	// LoopRecords are the executed-loop records from the local recording
	// run, for Figure-1-style output (the daemon sees only the trace).
	LoopRecords []dep.LoopRecord
	// Events is the number of accesses recorded and streamed.
	Events uint64
}

// Dial connects to a ddprofd daemon. addr is either "unix:/path/to.sock" or
// a TCP host:port.
func Dial(addr string) (net.Conn, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Dial("unix", path)
	}
	return net.Dial("tcp", addr)
}

// deadlineConn applies a rolling deadline to every read and write.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (d *deadlineConn) Read(p []byte) (int, error) {
	if err := d.Conn.SetReadDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return d.Conn.Read(p)
}

func (d *deadlineConn) Write(p []byte) (int, error) {
	if err := d.Conn.SetWriteDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return d.Conn.Write(p)
}

// ProfileRemote executes p locally while streaming its access trace to a
// ddprofd daemon over conn, then returns the dependence set the daemon
// profiled. The recording hook is a trace.SyncWriter, so multi-threaded
// targets stream safely. The connection is not closed.
//
// The daemon receives the target's variable table and loop metadata in the
// handshake, so the returned dependence set — carried flags, distances,
// counts — is byte-for-byte what an in-process run with the same store
// configuration produces.
func ProfileRemote(conn net.Conn, p *minilang.Program, opt ClientOptions) (*RemoteResult, error) {
	if opt.Timeout <= 0 {
		opt.Timeout = 60 * time.Second
	}
	dc := &deadlineConn{Conn: conn, timeout: opt.Timeout}
	bw := bufio.NewWriterSize(dc, 1<<16)

	if err := writeHandshake(bw, clientHandshake(p, opt)); err != nil {
		return nil, fmt.Errorf("server: sending handshake: %w", err)
	}
	records, events, err := streamTrace(bw, p, opt)
	if err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("server: finishing stream: %w", err)
	}

	status, payload, err := readResponse(bufio.NewReader(dc))
	if err != nil {
		return nil, err
	}
	if status != statusOK {
		return nil, fmt.Errorf("server: remote error: %s", payload)
	}
	set, _, tab, err := dep.Decode(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("server: decoding profile: %w", err)
	}
	return &RemoteResult{
		Deps:        set,
		Tab:         tab,
		LoopRecords: records,
		Events:      events,
	}, nil
}

// clientHandshake builds the session preamble for p.
func clientHandshake(p *minilang.Program, opt ClientOptions) *handshake {
	var flags byte
	if opt.MT {
		flags |= flagRaceCheck
	}
	names := make([]string, p.Tab.NumVars())
	for i := range names {
		names[i] = p.Tab.VarName(loc.VarID(i))
	}
	return &handshake{Flags: flags, Backend: opt.Backend, Workers: opt.Workers, VarNames: names, Meta: p.Meta}
}

// WatchOptions configure one live-observatory subscription.
type WatchOptions struct {
	// Session is the profiling session to observe; 0 subscribes to the
	// newest active session, waiting for the next one to start when none is
	// live.
	Session uint64
	// Since restricts the catch-up frame to dependences first observed at
	// this epoch or later; 0 delivers the full profile-so-far, which is what
	// makes the folded frame stream reconstruct the exact final profile.
	Since uint32
	// Timeout bounds every socket read and write; 0 means no deadline —
	// watch streams are long-lived and quiet between epochs.
	Timeout time.Duration
	// MaxFrame caps one delta frame; <= 0 selects trace.DefaultMaxFrame.
	MaxFrame int
}

// Watch subscribes to a ddprofd session's live observatory over conn and
// calls fn for every epoch-delta frame — each payload a complete DDP1
// profile of the dependences whose aggregates advanced during one epoch —
// until the frame marked final (the session's unshipped remainder), the end
// of the stream, or a non-nil error from fn, which stops the watch and is
// returned verbatim. A stream that terminates cleanly without a final frame
// means the watched session died before completing; Watch reports that as an
// error. The connection is not closed.
//
// Folding every received payload into one set with dep.DecodeMerge yields,
// after the final frame, the session's exact end-of-run profile (for Since
// 0): the deltas are extracted under the monotone-fold guarantee of
// dep.(*Set).ExtractDelta.
func Watch(conn net.Conn, opt WatchOptions, fn func(trace.DeltaFrame) error) error {
	var rw io.ReadWriter = conn
	if opt.Timeout > 0 {
		rw = &deadlineConn{Conn: conn, timeout: opt.Timeout}
	}
	bw := bufio.NewWriterSize(rw, 1<<12)
	h := &handshake{Watch: true, WatchSession: opt.Session, WatchSince: uint64(opt.Since)}
	if err := writeHandshake(bw, h); err != nil {
		return fmt.Errorf("server: sending watch handshake: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("server: sending watch handshake: %w", err)
	}
	br := bufio.NewReaderSize(rw, 1<<16)
	st, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("server: reading watch status: %w", noEOF(err))
	}
	if st != statusOK {
		msg, err := getString(br, maxRespPayload)
		if err != nil {
			return fmt.Errorf("server: reading watch error: %w", err)
		}
		return fmt.Errorf("server: watch refused: %s", msg)
	}
	dr := trace.NewDeltaReader(br, opt.MaxFrame)
	sawFinal := false
	for {
		f, err := dr.Next()
		if err == io.EOF {
			if !sawFinal {
				return fmt.Errorf("server: watched session ended without a final frame")
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("server: watch stream: %w", err)
		}
		if f.Final {
			sawFinal = true
		}
		if err := fn(f); err != nil {
			return err
		}
	}
}

// streamTrace executes p, streaming its framed DDT1 trace to w, and
// terminates the stream. The recording hook is a trace.Compactor, which
// serializes concurrent callers (so multi-threaded targets stream safely)
// and folds consecutive strided runs into range records, shrinking the trace
// on the wire and letting the daemon ingest whole runs in one dispatch.
func streamTrace(w io.Writer, p *minilang.Program, opt ClientOptions) ([]dep.LoopRecord, uint64, error) {
	fw := trace.NewFrameWriter(w)
	tw, err := trace.NewWriterSize(fw, opt.FrameBytes)
	if err != nil {
		return nil, 0, fmt.Errorf("server: opening trace stream: %w", err)
	}
	cw := trace.NewCompactor(tw)
	info, err := vm.New().Run(p, cw, interp.Options{Timestamps: opt.MT, YieldEvery: opt.SchedulerFuzz})
	if err != nil {
		return nil, 0, fmt.Errorf("server: target run: %w", err)
	}
	events := cw.Count()
	if err := cw.Close(); err != nil {
		return nil, 0, fmt.Errorf("server: streaming trace: %w", err)
	}
	if err := fw.Close(); err != nil {
		return nil, 0, fmt.Errorf("server: finishing stream: %w", err)
	}
	return info.LoopRecords, events, nil
}
