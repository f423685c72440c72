package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// TailReader reads WAL records sequentially from its own file
// descriptor, independent of the writer: the replication source opens
// one per follower stream and never touches the writer's lock or
// buffer. Because the writer appends strictly sequentially and flushes
// whole batches, a reader can only ever observe a prefix of the final
// file content — so an incomplete frame at the read position always
// means "not written yet, retry after the WAL grows" (io.EOF), while a
// complete frame that fails its checksum is real corruption.
type TailReader struct {
	f *os.File
	// off is the offset of the next unread record's header.
	off int64
	// seq is the last record sequence returned (records are numbered
	// 1..n in file order).
	seq uint64
	// hdr and buf are the reusable frame header and payload buffers.
	hdr [RecordOverhead]byte
	buf []byte
}

// ErrTailCorrupt marks a complete-but-invalid record under the tail
// cursor — a checksum mismatch or an insane length with bytes beyond
// it. The writer never produces this; it means the file was damaged in
// place and the reader cannot continue.
var ErrTailCorrupt = errors.New("ingest: wal tail corrupt")

// OpenTail opens the log at path for tailing and positions the cursor
// just past record `from` (0 = the beginning). Records not yet written
// surface as io.EOF from Next, never as an error. If the log holds
// fewer than `from` complete records the cursor stops at the durable
// end and Next waits there — the skipped-ahead case a follower hits
// when it bootstrapped from a snapshot newer than the log's tail
// cannot happen with a correct source (the snapshot watermark is
// always ≤ the WAL head).
func OpenTail(path string, from uint64) (*TailReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: open wal tail: %w", err)
	}
	var magic [len(walMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: read wal magic: %w", err)
	}
	if string(magic[:]) != walMagic {
		f.Close()
		return nil, fmt.Errorf("ingest: %s is not a report WAL (bad magic %q)", path, magic)
	}
	t := &TailReader{f: f, off: int64(len(walMagic))}
	for t.seq < from {
		if _, err := t.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			f.Close()
			return nil, err
		}
	}
	return t, nil
}

// Next returns the next record's payload (valid until the following
// call) and its sequence number. io.EOF means the durable log holds no
// complete record past the cursor yet; wait on the WAL's Changed
// channel and call Next again.
func (t *TailReader) Next() (Record, error) {
	payload, err := readFrame(io.NewSectionReader(t.f, t.off, RecordOverhead+maxWALRecord), &t.hdr, t.buf)
	switch {
	case errors.Is(err, io.EOF), errors.Is(err, errTornFrame):
		// Nothing past the cursor yet, or a frame whose flush is still
		// in flight.
		return Record{}, io.EOF
	case errors.Is(err, errBadFrame):
		return Record{}, fmt.Errorf("%w: record %d: %w", ErrTailCorrupt, t.seq+1, err)
	case err != nil:
		return Record{}, fmt.Errorf("ingest: read wal tail: %w", err)
	}
	t.buf = payload
	t.off += int64(RecordOverhead + len(payload))
	t.seq++
	return Record{Seq: t.seq, Payload: payload}, nil
}

// Record is one tailed WAL record: the 1-based sequence number and the
// raw payload bytes (compact report JSON).
type Record struct {
	Seq     uint64
	Payload []byte
}

// Seq returns the sequence of the last record Next returned.
func (t *TailReader) Seq() uint64 { return t.seq }

// Offset returns the byte offset of the cursor (just past the last
// returned record).
func (t *TailReader) Offset() int64 { return t.off }

// Close releases the reader's file descriptor.
func (t *TailReader) Close() error { return t.f.Close() }
