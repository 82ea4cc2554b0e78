package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"ddprof/internal/core"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/telemetry"
	"ddprof/internal/trace"
)

// benchIngestStream synthesizes the dependence-dense hot-loop shape the
// pipeline benchmarks use (a carried RAW chain, an in-iteration duplicate
// read, a reduction RAW), with one extra property: the final record lands on
// address 0 with timestamp 0, which is exactly the delta-encoder's initial
// state. One encoded pass of the stream therefore replays byte-identically
// any number of times — the benchmark repeats the same body bytes without
// address drift, so the profile (and the per-event cost) reaches a steady
// state instead of growing with b.N.
func benchIngestStream(events int) ([]event.Access, *prog.Meta) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "hot"})
	ctx := m.PushCtx(0, l)
	const window = 4096
	aBase, sumAddr := uint64(0x10000), uint64(0x8000)
	evs := make([]event.Access, 0, events+1)
	for it := uint32(0); len(evs) < events; it++ {
		iv := event.PackIterVec([]uint32{it})
		at := func(i uint32) uint64 { return aBase + 8*uint64(i%window) }
		ev := func(addr uint64, k event.Kind, line int, fl event.Flags) event.Access {
			return event.Access{Addr: addr, Kind: k, Loc: loc.Pack(1, line), CtxID: ctx, IterVec: iv, Flags: fl}
		}
		if it > 0 {
			evs = append(evs, ev(at(it-1), event.Read, 10, 0))
		}
		evs = append(evs,
			ev(at(it), event.Write, 12, 0),
			ev(at(it), event.Read, 13, 0),
			ev(at(it), event.Read, 13, 0),
			ev(sumAddr, event.Read, 14, event.FlagReduction),
			ev(sumAddr, event.Write, 14, event.FlagReduction),
		)
	}
	evs = evs[:events]
	// Reset record: returns the delta coder to its initial (addr 0, ts 0)
	// state so the encoded pass is replayable.
	evs = append(evs, event.Access{Addr: 0, Kind: event.Read, Loc: loc.Pack(1, 15), CtxID: ctx})
	return evs, m
}

// encodeIngestPass serializes one pass of the stream as DDT1 bytes and
// returns (full, body): full includes the 4-byte magic, body is the record
// bytes alone, suitable for appending to an already-open stream.
func encodeIngestPass(stream []event.Access) (full, body []byte, err error) {
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, nil, err
	}
	for _, a := range stream {
		tw.Access(a)
	}
	if err := tw.Close(); err != nil {
		return nil, nil, err
	}
	full = buf.Bytes()
	return full, full[4:], nil
}

// streamIngestFrames writes p to fw in frame-sized slices, mirroring the
// client's 64KiB trace.Writer flush granularity.
func streamIngestFrames(fw *trace.FrameWriter, p []byte) error {
	const frame = 64 << 10
	for len(p) > 0 {
		n := frame
		if n > len(p) {
			n = len(p)
		}
		if _, err := fw.Write(p[:n]); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// BenchmarkRemoteIngest measures the daemon's ingest path end to end —
// handshake, framed DDT1 stream, profiling, response — against an in-process
// twin running the identical event stream through the same pipeline
// configuration. The remote/inproc ratio is the cost of the wire; `make
// bench-remote` records both under the "remote" label so the gate catches
// ingest regressions.
func BenchmarkRemoteIngest(b *testing.B) {
	stream, meta := benchIngestStream(1 << 16)
	full, body, err := encodeIngestPass(stream)
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"x"}

	remote := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Skipf("tcp loopback unavailable: %v", err)
			}
			srv := New(Config{
				WorkerBudget:      8,
				WorkersPerSession: workers,
				SessionSlots:      1 << 20,
				Registry:          telemetry.NewRegistry(),
				SnapshotSamples:   -1,
			})
			go srv.Serve(ln)
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			passes := (b.N + len(stream) - 1) / len(stream)
			events := passes * len(stream)
			bw := bufio.NewWriterSize(conn, 1<<16)
			start := time.Now()
			b.ResetTimer()
			if err := writeHandshake(bw, &handshake{Workers: workers, VarNames: names, Meta: meta}); err != nil {
				b.Fatal(err)
			}
			fw := trace.NewFrameWriter(bw)
			if err := streamIngestFrames(fw, full); err != nil {
				b.Fatal(err)
			}
			for i := 1; i < passes; i++ {
				if err := streamIngestFrames(fw, body); err != nil {
					b.Fatal(err)
				}
			}
			if err := fw.Close(); err != nil {
				b.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				b.Fatal(err)
			}
			status, payload, err := readResponse(bufio.NewReader(conn))
			elapsed := time.Since(start)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if status != statusOK {
				b.Fatalf("remote error: %s", payload)
			}
			b.ReportMetric(float64(events)/elapsed.Seconds(), "events/s")
		}
	}

	inproc := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			var prof core.Profiler
			if workers >= 2 {
				prof = core.NewParallel(core.Config{
					Workers:           workers,
					SlotsPerWorker:    (1 << 20) / workers,
					RedistributeEvery: 50000,
					Meta:              meta,
				})
			} else {
				prof = core.NewSerial(core.Config{SlotsPerWorker: 1 << 20, Meta: meta})
			}
			passes := (b.N + len(stream) - 1) / len(stream)
			events := passes * len(stream)
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < passes; i++ {
				for j := 0; j < len(stream); j += event.ChunkSize {
					prof.AccessBatch(stream[j:min(j+event.ChunkSize, len(stream))], nil)
				}
			}
			prof.Flush()
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(events)/elapsed.Seconds(), "events/s")
		}
	}

	for _, w := range []int{1, 4} {
		tag := "serial"
		if w >= 2 {
			tag = fmt.Sprintf("parallel%d", w)
		}
		b.Run("remote-"+tag, remote(w))
		b.Run("inproc-"+tag, inproc(w))
	}
}
