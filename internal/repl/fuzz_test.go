package repl

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReplFrameDecode throws hostile bytes at every wire decoder a
// follower runs against trainer-supplied input: the frame decoder
// (both the one-shot and streaming forms) and the JSON payload
// parsers. The invariants: no panic, no over-read, the two frame
// decoders agree, and a decoded frame re-encodes to the bytes it was
// decoded from.
func FuzzReplFrameDecode(f *testing.F) {
	f.Add(appendFrame(nil, FrameHello, 0, []byte(`{"epoch":1,"head_seq":3,"from_seq":3}`)))
	f.Add(appendFrame(nil, FrameRecord, 1, []byte(`{"name":"g0","observation":{"ap0":-50}}`)))
	f.Add(appendFrame(nil, FramePublish, 9,
		[]byte(`{"epoch":2,"generation":4,"wal_watermark":9,"artifact_size":128,"resume_size":32}`)))
	f.Add(appendFrame(nil, FrameHeartbeat, 12, nil))
	// Two frames back to back, and a torn tail.
	two := appendFrame(appendFrame(nil, FrameRecord, 1, []byte("a")), FrameRecord, 2, []byte("b"))
	f.Add(two)
	f.Add(two[:len(two)-3])
	// Hostile headers: zero bytes, oversize length, bad type, bad CRC.
	f.Add(make([]byte, FrameHeaderSize))
	f.Add([]byte{0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	bad := appendFrame(nil, FrameRecord, 5, []byte("checksummed"))
	bad[len(bad)-1] ^= 0x01
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		sf, serr := NewFrameReader(bytes.NewReader(data)).Next()
		if err != nil {
			if n != 0 {
				t.Fatalf("error path consumed %d bytes", n)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			// The streaming reader must also fail (it may classify a cut
			// differently — io.EOF on an empty buffer — but never succeed).
			if serr == nil {
				t.Fatalf("DecodeFrame failed (%v) but FrameReader decoded %+v", err, sf)
			}
			return
		}
		if n < FrameHeaderSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if serr != nil {
			t.Fatalf("DecodeFrame succeeded but FrameReader failed: %v", serr)
		}
		if sf.Type != fr.Type || sf.Seq != fr.Seq || !bytes.Equal(sf.Payload, fr.Payload) {
			t.Fatalf("decoders disagree: %+v vs %+v", fr, sf)
		}
		// Round trip: re-encoding reproduces the consumed bytes exactly.
		if re := appendFrame(nil, fr.Type, fr.Seq, fr.Payload); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
		// The JSON payload parsers must never panic on frame payloads,
		// whatever the frame type claims.
		ParseHello(fr.Payload)
		ParseManifest(fr.Payload)
	})
}
