package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// appendFrame appends one frame to dst as WriteFrame encodes it.
func appendFrame(dst []byte, typ byte, seq uint64, payload []byte) []byte {
	b := bytes.NewBuffer(dst)
	if err := WriteFrame(b, typ, seq, payload); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte(`{"name":"g0","observation":{"ap0":-50}}`),
		bytes.Repeat([]byte{0xA5}, 4096),
	}
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := WriteFrame(&buf, FrameRecord, uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for i, p := range payloads {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != FrameRecord || f.Seq != uint64(i+1) || !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d round-tripped wrong: %+v", i, f)
		}
	}
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("clean boundary: err %v, want io.EOF", err)
	}
}

func TestFrameDecodeMatchesReader(t *testing.T) {
	data := appendFrame(nil, FramePublish, 42, []byte(`{"epoch":1}`))
	data = appendFrame(data, FrameHeartbeat, 43, nil)
	f, n, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FramePublish || f.Seq != 42 || string(f.Payload) != `{"epoch":1}` {
		t.Fatalf("decoded %+v", f)
	}
	f2, n2, err := DecodeFrame(data[n:])
	if err != nil {
		t.Fatal(err)
	}
	if f2.Type != FrameHeartbeat || f2.Seq != 43 || len(f2.Payload) != 0 {
		t.Fatalf("second frame %+v", f2)
	}
	if n+n2 != len(data) {
		t.Fatalf("consumed %d+%d of %d bytes", n, n2, len(data))
	}
}

// TestFrameTornStream pins the torn-segment contract: a stream cut at
// any interior byte yields io.ErrUnexpectedEOF from the reader — never
// a decoded partial frame, never a clean EOF.
func TestFrameTornStream(t *testing.T) {
	full := appendFrame(nil, FrameRecord, 7, []byte("torn-me-somewhere"))
	for cut := 1; cut < len(full); cut++ {
		fr := NewFrameReader(bytes.NewReader(full[:cut]))
		if _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err %v, want io.ErrUnexpectedEOF", cut, err)
		}
		if _, _, err := DecodeFrame(full[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("DecodeFrame cut at %d: err %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	good := appendFrame(nil, FrameRecord, 1, []byte("payload"))

	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0xFF
		return b
	}
	// Unknown type.
	if _, _, err := DecodeFrame(flip(0)); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("bad type: %v", err)
	}
	// Flipped payload byte fails the checksum.
	if _, _, err := DecodeFrame(flip(FrameHeaderSize)); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("bad payload: %v", err)
	}
	// Flipped checksum byte fails too.
	if _, _, err := DecodeFrame(flip(13)); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("bad crc: %v", err)
	}
	// Insane length is corruption, not a request for more bytes.
	b := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(b[9:13], MaxFramePayload+1)
	if _, _, err := DecodeFrame(b); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("oversize length: %v", err)
	}
	// The reader agrees on every verdict.
	for _, bad := range [][]byte{flip(0), flip(FrameHeaderSize), flip(13), b} {
		if _, err := NewFrameReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("reader on corrupt frame: %v", err)
		}
	}
	// WriteFrame refuses to emit an over-cap payload.
	if err := WriteFrame(io.Discard, FrameRecord, 1, make([]byte, MaxFramePayload+1)); err == nil {
		t.Error("oversize payload written")
	}
}

func TestParseHelloValidation(t *testing.T) {
	for _, bad := range []string{
		`not json`,
		`{"epoch":0,"head_seq":1}`,
		`{"epoch":1,"head_bytes":-1}`,
		`{"epoch":1,"from_seq":5,"head_seq":4}`,
	} {
		if _, err := ParseHello([]byte(bad)); err == nil {
			t.Errorf("hello %s accepted", bad)
		}
	}
	h, err := ParseHello([]byte(`{"epoch":9,"head_seq":10,"head_bytes":100,"from_seq":4,"from_bytes":40}`))
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch != 9 || h.HeadSeq != 10 || h.FromSeq != 4 || h.FromBytes != 40 {
		t.Fatalf("hello %+v", h)
	}
}

func TestParseManifestValidation(t *testing.T) {
	for _, bad := range []string{
		`not json`,
		`{"epoch":0,"artifact_size":10,"resume_size":10}`,
		`{"epoch":1,"artifact_size":0,"resume_size":10}`,
		`{"epoch":1,"artifact_size":10,"resume_size":-5}`,
		`{"epoch":1,"artifact_size":10,"resume_size":10,"entries":-1}`,
	} {
		if _, err := ParseManifest([]byte(bad)); err == nil {
			t.Errorf("manifest %s accepted", bad)
		}
	}
	m, err := ParseManifest([]byte(`{"epoch":3,"generation":7,"wal_watermark":12,"artifact_size":100,"resume_size":16}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 3 || m.Generation != 7 || m.Watermark != 12 {
		t.Fatalf("manifest %+v", m)
	}
}
