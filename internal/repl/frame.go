package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame types on a WAL stream.
const (
	// FrameHello opens the stream: a Hello JSON payload anchoring the
	// follower's position and lag accounting.
	FrameHello byte = 1
	// FrameRecord carries one WAL record's raw payload (compact report
	// JSON); Seq is its WAL sequence number.
	FrameRecord byte = 2
	// FramePublish announces a published trainer snapshot: a Manifest
	// JSON payload. It is only sent at stream positions ≥ the
	// manifest's watermark, which is what lets a follower equate "I
	// reached the watermark" with "my replica is the trainer's frozen
	// state".
	FramePublish byte = 3
	// FrameHeartbeat carries a Hello payload refreshing the head
	// gauges while the log is idle, so lag-in-seconds stays honest.
	FrameHeartbeat byte = 4
)

// FrameHeaderSize is the fixed frame prefix:
//
//	u8  type
//	u64 sequence (little endian)
//	u32 payload length (little endian)
//	u32 CRC-32 (IEEE) of the payload
const FrameHeaderSize = 1 + 8 + 4 + 4

// MaxFramePayload bounds one frame's payload. Record payloads are
// bounded by the WAL's own record cap (1 MiB); manifests and hellos
// are far smaller. Anything larger is corruption, not data.
const MaxFramePayload = 1 << 20

// ErrFrameCorrupt marks a structurally invalid frame: an unknown
// type, an insane length, or a payload failing its checksum.
var ErrFrameCorrupt = errors.New("repl: corrupt frame")

// Frame is one decoded stream frame.
type Frame struct {
	Type    byte
	Seq     uint64
	Payload []byte
}

// WriteFrame encodes one frame to w.
func WriteFrame(w io.Writer, typ byte, seq uint64, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("repl: frame payload %d exceeds cap", len(payload))
	}
	var hdr [FrameHeaderSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint64(hdr[1:9], seq)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[13:17], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// DecodeFrame decodes one frame from the front of data, returning the
// frame and how many bytes it consumed. io.ErrUnexpectedEOF means the
// buffer holds a truncated frame (more bytes needed); ErrFrameCorrupt
// means the bytes can never become a valid frame.
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) < FrameHeaderSize {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	typ := data[0]
	seq := binary.LittleEndian.Uint64(data[1:9])
	length := binary.LittleEndian.Uint32(data[9:13])
	sum := binary.LittleEndian.Uint32(data[13:17])
	if typ < FrameHello || typ > FrameHeartbeat {
		return Frame{}, 0, fmt.Errorf("%w: unknown type %d", ErrFrameCorrupt, typ)
	}
	if length > MaxFramePayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d exceeds cap", ErrFrameCorrupt, length)
	}
	total := FrameHeaderSize + int(length)
	if len(data) < total {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	payload := data[FrameHeaderSize:total]
	if crc32.ChecksumIEEE(payload) != sum {
		return Frame{}, 0, fmt.Errorf("%w: payload checksum mismatch", ErrFrameCorrupt)
	}
	return Frame{Type: typ, Seq: seq, Payload: payload}, total, nil
}

// FrameReader decodes a stream of frames from r through DecodeFrame.
// The payload returned by Next is valid until the following call.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte // the frame being decoded: header, then payload
}

// NewFrameReader wraps r for frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 32<<10), buf: make([]byte, 0, 4096)}
}

// Next reads one frame. io.EOF means the stream ended cleanly on a
// frame boundary; io.ErrUnexpectedEOF means it was cut mid-frame (the
// torn-segment case — the connection died inside a frame, nothing
// decoded from the partial bytes).
func (fr *FrameReader) Next() (Frame, error) {
	fr.buf = fr.buf[:FrameHeaderSize]
	if _, err := io.ReadFull(fr.br, fr.buf); err != nil {
		return Frame{}, err // io.EOF on a boundary, ErrUnexpectedEOF mid-header
	}
	// A corrupt header or an empty payload decodes from the header alone.
	if f, _, err := DecodeFrame(fr.buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		return f, err
	}
	length := int(binary.LittleEndian.Uint32(fr.buf[9:13]))
	fr.buf = slices.Grow(fr.buf, length)[:FrameHeaderSize+length]
	if _, err := io.ReadFull(fr.br, fr.buf[FrameHeaderSize:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, _, err := DecodeFrame(fr.buf)
	return f, err
}
