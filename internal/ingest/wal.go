// Package ingest is the live training pipeline: it accepts
// crowdsourced fingerprint reports, journals them to an append-only
// write-ahead log, buffers them in a bounded queue with explicit
// backpressure, and folds them into the training database in a
// background compactor that periodically recompiles the radio map and
// publishes it through an atomic snapshot registry — so a static
// reproduction of the paper's one-shot Training Database Generator
// becomes a continuously learning service that never blocks or
// corrupts the localization hot path.
//
// # WAL format
//
// The log is a 8-byte magic header ("ILOCWAL1") followed by records:
//
//	uint32 payload length (little endian)
//	uint32 CRC-32 (IEEE) of the payload
//	payload — the report as compact JSON, exactly json.Marshal's bytes
//
// AppendReport writes the payload without reflection, and DecodeReport
// reads it back: a scanner for the canonical shape, encoding/json for
// anything else, so replay accepts and rejects exactly what
// json.Unmarshal does.
//
// Records are append-only and individually checksummed. On open the
// tail is scanned: a partial final record (torn write from a crash) or
// a checksum mismatch marks the end of the trusted prefix; the file is
// truncated there and appending resumes. Every report acknowledged to
// a client is flushed to the log before the acknowledgement, so a
// kill-and-restart replays every accepted report.
package ingest

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"

	"indoorloc/internal/jsonscan"
)

// walMagic starts every log file; it guards against replaying a
// foreign file as fingerprint reports.
const walMagic = "ILOCWAL1"

// RecordOverhead is the framing each record adds to its payload on
// disk: the length and CRC words.
const RecordOverhead = 8

// maxWALRecord bounds one record's payload. A report is a location tag
// plus one reading per audible AP — even a pathological 10k-AP report
// is far under this; anything larger on replay is corruption, not
// data.
const maxWALRecord = 1 << 20

// WAL is the append-only report journal. Append is safe for
// concurrent use; Open replays and positions the file for appending.
//
// Every record carries an implicit sequence number: its 1-based
// ordinal in the file. Replay establishes the base; Append extends it.
// Sequence numbers are the replication protocol's currency — a
// follower resumes a tail by the last sequence it applied — so they
// are never reused within one WAL lifetime. A WAL lifetime is named by
// its epoch, a random identifier persisted in a "<path>.epoch" sidecar
// and regenerated whenever the file is initialized from scratch:
// deleting the WAL (sequence numbers restart at 1) changes the epoch,
// which is how a follower distinguishes "same history, trainer
// restarted" from "new history, my position is meaningless".
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	bw   *bufio.Writer
	sync bool
	path string
	// batch is the reused buffer an append frames its records into.
	batch []byte
	// records counts appended + replayed records; the last record's
	// sequence number is exactly this count.
	records int
	// off is the append position: the byte offset just past the last
	// durable record (replication lag in bytes reads it).
	off int64
	// epoch names this WAL lifetime (see type doc).
	epoch uint64
	// notify is closed and replaced after every successful append, so
	// tailers can wait for growth without polling.
	notify chan struct{}
}

// OpenWAL opens (creating if needed) the log at path, hands every
// intact record to each in log order as it replays, and returns the
// WAL positioned to append. Replay keeps no report: a caller that
// folds them as they come never holds the whole history. dropped
// counts trailing records discarded as torn or corrupt — the file is
// truncated to the last intact record, so the damage never propagates
// into future appends. On an error, the reports already handed to each
// stay handed. syncEach makes every append fsync (durable against
// power loss, not just process death).
func OpenWAL(path string, syncEach bool, each func(Report)) (w *WAL, dropped int, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: open wal: %w", err)
	}
	records, goodOff, dropped, err := replay(f, each)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	fresh := goodOff == 0
	if fresh {
		// Fresh (or empty) file: write the magic.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("ingest: reset wal: %w", err)
		}
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("ingest: init wal: %w", err)
		}
		goodOff = int64(len(walMagic))
	} else if dropped > 0 {
		if err := f.Truncate(goodOff); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("ingest: truncate damaged wal tail: %w", err)
		}
	}
	if _, err := f.Seek(goodOff, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("ingest: seek wal: %w", err)
	}
	epoch, err := loadEpoch(path, fresh)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	w = &WAL{f: f, bw: bufio.NewWriterSize(f, 64<<10), sync: syncEach, path: path,
		off: goodOff, epoch: epoch, notify: make(chan struct{}), records: records}
	return w, dropped, nil
}

// loadEpoch reads (or mints) the WAL's lifetime identifier from the
// "<path>.epoch" sidecar. A freshly initialized WAL always gets a new
// epoch — its sequence numbers restart, so any follower position taken
// against the old file must be invalidated. An existing WAL with no
// sidecar (pre-replication deployments) gets one minted now and keeps
// it from then on.
func loadEpoch(path string, fresh bool) (uint64, error) {
	side := path + ".epoch"
	if !fresh {
		if raw, err := os.ReadFile(side); err == nil {
			if e, perr := strconv.ParseUint(strings.TrimSpace(string(raw)), 16, 64); perr == nil && e != 0 {
				return e, nil
			}
			// Unparsable sidecar: fall through and mint a fresh epoch —
			// safer to make followers re-bootstrap than to guess.
		}
	}
	var buf [8]byte
	if _, err := crand.Read(buf[:]); err != nil {
		return 0, fmt.Errorf("ingest: mint wal epoch: %w", err)
	}
	e := binary.LittleEndian.Uint64(buf[:])
	if e == 0 {
		e = 1 // zero is the "no epoch yet" sentinel on the follower side
	}
	if err := os.WriteFile(side, []byte(strconv.FormatUint(e, 16)+"\n"), 0o644); err != nil {
		return 0, fmt.Errorf("ingest: persist wal epoch: %w", err)
	}
	return e, nil
}

// replay scans the log from the start, handing each intact report to
// each, and returns how many it handed over, the offset just past the
// last intact record, and how many trailing records were dropped as
// torn or corrupt. A file shorter than the magic (including empty)
// replays as zero records at offset zero. A wrong magic is a hard
// error: the file is not a WAL and truncating it would destroy someone
// else's data.
func replay(f *os.File, each func(Report)) (records int, goodOff int64, dropped int, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, fmt.Errorf("ingest: seek wal: %w", err)
	}
	br := bufio.NewReaderSize(f, 64<<10)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, 0, nil // empty or sub-magic file: treat as fresh
		}
		return 0, 0, 0, fmt.Errorf("ingest: read wal magic: %w", err)
	}
	if string(magic) != walMagic {
		return 0, 0, 0, fmt.Errorf("ingest: %s is not a report WAL (bad magic %q)", f.Name(), magic)
	}
	goodOff = int64(len(walMagic))
	var hdr [RecordOverhead]byte
	var payload []byte
	var keys, names jsonscan.Keys
	for {
		payload, err = readFrame(br, &hdr, payload)
		switch {
		case errors.Is(err, io.EOF):
			return records, goodOff, dropped, nil // clean end
		case errors.Is(err, errTornFrame), errors.Is(err, errBadFrame):
			return records, goodOff, dropped + 1, nil // torn or corrupt tail
		case err != nil:
			return 0, 0, 0, fmt.Errorf("ingest: read wal record: %w", err)
		}
		r, err := DecodeReport(payload, &keys, &names)
		if err != nil {
			return records, goodOff, dropped + 1, nil // undecodable: reject
		}
		each(r)
		records++
		goodOff += int64(RecordOverhead + len(payload))
	}
}

// readFrame's own failures: the input ends inside a frame, or a
// complete header or payload is invalid (a length out of bounds, a
// checksum mismatch).
var (
	errTornFrame = errors.New("ingest: torn wal record")
	errBadFrame  = errors.New("ingest: corrupt wal record")
)

// readFrame decodes one record frame from r — header, length bound,
// payload and CRC — into buf (grown as needed) and returns the payload.
// It returns io.EOF when r ends before the frame, errTornFrame when r
// ends inside it, errBadFrame (wrapped) for a bad length or checksum,
// and r's other errors as is. Replay and the tail reader both decode
// through it, each with its own policy for the outcomes.
func readFrame(r io.Reader, hdr *[RecordOverhead]byte, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errTornFrame
		}
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length == 0 || length > maxWALRecord {
		return nil, fmt.Errorf("%w: length %d", errBadFrame, length)
	}
	buf = slices.Grow(buf[:0], int(length))[:length]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errTornFrame
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", errBadFrame)
	}
	return buf, nil
}

// Append journals the reports, flushing them to the operating system
// (and to stable storage when the WAL was opened with syncEach) before
// returning. A batch is one lock acquisition and one flush; either all
// of its records reach the log or the error aborts the acknowledgement.
// It returns the sequence number of the batch's last record (the
// batch occupies last-len+1 … last), assigned atomically under the
// WAL lock so concurrent appenders never interleave numbering.
//
//loclint:hotpath
func (w *WAL) Append(reports ...Report) (last uint64, err error) {
	if len(reports) == 0 {
		return 0, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, errors.New("ingest: wal closed")
	}
	// The whole batch is framed into one buffer before any of it is
	// written, so a report that fails to encode leaves nothing behind
	// for a later flush to journal without a sequence number.
	var hdr [RecordOverhead]byte // filled in once the payload is encoded
	buf := w.batch[:0]
	for i := range reports {
		start := len(buf)
		buf = append(buf, hdr[:]...) //loclint:allow hotpathalloc — the reused batch buffer
		buf, err = AppendReport(buf, &reports[i])
		if err != nil {
			return 0, fmt.Errorf("ingest: encode report: %w", err)
		}
		payload := buf[start+RecordOverhead:]
		if len(payload) > maxWALRecord {
			return 0, fmt.Errorf("ingest: report exceeds max WAL record (%d > %d bytes)", len(payload), maxWALRecord)
		}
		binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	}
	if cap(buf) <= maxWALRecord {
		w.batch = buf // keep a typical batch's buffer; drop a huge one
	}
	if _, err := w.bw.Write(buf); err != nil {
		return 0, fmt.Errorf("ingest: append wal: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return 0, fmt.Errorf("ingest: flush wal: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("ingest: sync wal: %w", err)
		}
	}
	w.records += len(reports)
	w.off += int64(len(buf))
	// Wake every waiting tailer; the next wait gets a fresh channel.
	// One channel header per *batch*, amortized across its records; the
	// records themselves encode into the reused batch buffer.
	close(w.notify)
	w.notify = make(chan struct{}) //loclint:allow hotpathalloc
	return uint64(w.records), nil
}

// Seq returns the sequence number of the last durable record (0 for an
// empty log).
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return uint64(w.records)
}

// Size returns the byte offset just past the last durable record.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// Epoch returns the WAL's lifetime identifier (see the type doc).
func (w *WAL) Epoch() uint64 { return w.epoch }

// Changed returns a channel closed at the next successful append.
// Callers re-arm by calling Changed again after each wake-up; checking
// Seq between the two closes any notify/append race window.
func (w *WAL) Changed() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.notify
}

// Path returns the log file's path.
func (w *WAL) Path() string { return w.path }

// Close flushes and closes the log. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.bw.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	// Wake waiting tailers once; the replacement channel never closes,
	// so a woken tailer that re-arms waits on its own timeout instead of
	// spinning against a permanently closed channel.
	close(w.notify)
	w.notify = make(chan struct{})
	return err
}
