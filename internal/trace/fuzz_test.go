package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// FuzzReplay hardens the trace reader: arbitrary bytes must either replay
// or error, never panic, and whatever replays must re-encode.
// FuzzFrames hardens the framing layer: arbitrary bytes walked frame by
// frame through ReadFrameHeader — the header reader ddprofd's session ingest
// runs — must error or end at the terminator, never panic; FrameReader over
// the same bytes must recover the same payload and fail with the same error;
// a frame round trip of whatever was read back must be lossless; and the
// trace Reader over the framed bytes must never panic.
func FuzzFrames(f *testing.F) {
	var framed bytes.Buffer
	fw := NewFrameWriter(&framed)
	w, _ := NewWriter(fw)
	w.Access(event.Access{Addr: 0x2000, Kind: event.Read, Loc: loc.Pack(2, 3)})
	_ = w.Close()
	_ = fw.Close()
	f.Add(framed.Bytes())
	f.Add([]byte{0})
	f.Add([]byte{4, 'D', 'D', 'T', '1', 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 16
		// The session-ingest loop: header, then the whole payload.
		br := bufio.NewReader(bytes.NewReader(data))
		var payload []byte
		var walkErr error
		for {
			ln, err := ReadFrameHeader(br, maxFrame)
			if err != nil || ln == 0 {
				walkErr = err
				break
			}
			if ln > maxFrame {
				t.Fatalf("header of %d bytes passed the %d cap", ln, maxFrame)
			}
			buf := make([]byte, ln)
			n, err := io.ReadFull(br, buf)
			payload = append(payload, buf[:n]...)
			if err != nil {
				walkErr = fmt.Errorf("trace: reading frame payload: %w", noEOF(err))
				break
			}
		}

		fr := NewFrameReader(bytes.NewReader(data), maxFrame)
		got, err := io.ReadAll(fr)
		if err == nil && !fr.Terminated() {
			t.Fatal("clean EOF without terminator frame")
		}
		if fmt.Sprint(err) != fmt.Sprint(walkErr) || !bytes.Equal(got, payload) {
			t.Fatalf("FrameReader (%d bytes, err %v) disagrees with the header walk (%d bytes, err %v)",
				len(got), err, len(payload), walkErr)
		}
		// Whatever payload was recovered must round-trip through framing.
		var out bytes.Buffer
		fw := NewFrameWriter(&out)
		for i := 0; i < len(payload); i += 100 {
			fw.Write(payload[i:min(i+100, len(payload))])
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := io.ReadAll(NewFrameReader(&out, 0))
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("frame round trip: err %v, %d bytes vs %d", err, len(back), len(payload))
		}
		// And the session path — trace reader over framed bytes — must never
		// panic.
		_, _ = ReadAll(NewFrameReader(bytes.NewReader(data), maxFrame))
	})
}

func FuzzReplay(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Access(event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 7), TS: 1})
	w.Access(event.Access{Addr: 0x1008, Kind: event.Read, Loc: loc.Pack(1, 8), TS: 2, Thread: 3})
	_ = w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte("DDT1"))
	f.Add([]byte{})
	f.Add([]byte("DDT1\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w2, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range evs {
			w2.Access(a)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadAll(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back) != len(evs) {
			t.Fatalf("round trip lost events: %d vs %d", len(back), len(evs))
		}
	})
}

// FuzzRangeFrame hardens the range-record decode path: arbitrary bytes must
// decode or error, never panic; every decoded range must be in-bounds and
// non-wrapping; the per-element expansion of a stream (ReadAll) must agree
// with its NextRecord() view; and whatever decodes must re-encode losslessly.
func FuzzRangeFrame(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Access(event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 7), TS: 1})
	w.Range(event.Range{Base: 0x2000, Stride: 8, Count: 64, Kind: event.Read, Loc: loc.Pack(1, 8), IterDelta: 1, TS: 1})
	w.Range(event.Range{Base: 0x9000, Stride: ^uint64(0) - 15, Count: 32, Kind: event.Write, Loc: loc.Pack(1, 9)})
	w.Access(event.Access{Addr: 0x2008, Kind: event.Read, Loc: loc.Pack(1, 10)})
	_ = w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte("DDT1"))
	f.Add([]byte{'D', 'D', 'T', '1', 7, 1, 0, 16, 64, 0, 0, 0, 0, 0, 0, 0, 0})
	// Claims count 2^30 — must be rejected before distorting accounting.
	f.Add([]byte{'D', 'D', 'T', '1', 7, 0, 0, 16, 0x80, 0x80, 0x80, 0x80, 0x04, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var recs []Record
		var total uint64
		for {
			rec, err := tr.NextRecord()
			if err == io.EOF {
				break
			}
			if err != nil {
				// The expansion view must fail on the same stream.
				if _, err2 := ReadAll(bytes.NewReader(data)); err2 == nil {
					t.Fatalf("NextRecord failed (%v) but ReadAll replayed cleanly", err)
				}
				return
			}
			if rec.IsRange {
				rg := rec.Range
				if rg.Count < 2 || rg.Count > maxWireRangeCount {
					t.Fatalf("decoded range count %d out of bounds", rg.Count)
				}
				if rangeWraps(rg.Base, int64(rg.Stride), rg.Count) {
					t.Fatalf("decoded range wraps: base %#x stride %d count %d", rg.Base, int64(rg.Stride), rg.Count)
				}
				total += uint64(rg.Count)
			} else {
				total++
			}
			recs = append(recs, rec)
		}
		if tr.Count() != total {
			t.Fatalf("reader count %d, want %d", tr.Count(), total)
		}
		// The per-element view must be exactly the expansion of the records.
		evs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("NextRecord replayed cleanly but ReadAll failed: %v", err)
		}
		var want []event.Access
		for _, rec := range recs {
			if rec.IsRange {
				for j := uint32(0); j < rec.Range.Count; j++ {
					want = append(want, rec.Range.At(j))
				}
			} else {
				want = append(want, rec.Access)
			}
		}
		if len(evs) != len(want) {
			t.Fatalf("Next expanded %d events, NextRecord implies %d", len(evs), len(want))
		}
		for i := range want {
			if evs[i] != want[i] {
				t.Fatalf("event %d: Next %+v vs NextRecord expansion %+v", i, evs[i], want[i])
			}
		}
		// Re-encode the records and require a lossless second decode.
		var out bytes.Buffer
		w2, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.IsRange {
				w2.Range(rec.Range)
			} else {
				w2.Access(rec.Access)
			}
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadAll(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back) != len(want) {
			t.Fatalf("round trip lost events: %d vs %d", len(back), len(want))
		}
	})
}
