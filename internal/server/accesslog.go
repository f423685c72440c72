package server

import (
	"bufio"
	"encoding/binary"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The access logger is a lock-free ring between the request goroutines
// and one background drainer. Recording an entry on the serving path
// is a ticket fetch (one atomic add) plus a fixed number of atomic
// stores into a pre-allocated slot — no locks, no channels that can
// block, and no per-request allocations. When producers outrun the
// drainer the ring laps itself and the oldest unread entries are
// dropped (counted, surfaced at /metrics as
// indoorloc_accesslog_dropped_total): under pressure the serving path
// never waits for the log.
//
// Every slot field is an atomic, so producers, a lapping producer and
// the drainer are race-detector-clean by construction. Torn records —
// a slot overwritten between the drainer's sequence checks — are
// detected by re-reading the slot's sequence stamp after the copy and
// dropped rather than logged; that is the drop-oldest contract, not a
// failure.

const (
	// logRemoteBytes holds the longest remote address net/http hands us
	// ("[full-ipv6]:65535" is 47 bytes); logPathBytes covers every
	// route plus a generous /track/{client} suffix. Longer values are
	// truncated — the log stays fixed-width by design.
	logRemoteBytes = 48
	logPathBytes   = 48

	// defaultLogRing is the default ring size; at ~130 kB total it
	// absorbs multi-millisecond drainer stalls at 100k req/s.
	defaultLogRing = 8192
)

// logSlot is one ring entry, fully atomic. meta packs
// status<<32 | route<<24 | method<<16 | remoteLen<<8 | pathLen.
type logSlot struct {
	seq    atomic.Uint64 // pos+1 once published; 0 while being written
	id     atomic.Uint64
	when   atomic.Int64 // unix nanoseconds
	dur    atomic.Int64 // request latency, nanoseconds
	meta   atomic.Uint64
	remote [logRemoteBytes / 8]atomic.Uint64
	path   [logPathBytes / 8]atomic.Uint64
}

// logEntry is one decoded record on the drainer side.
type logEntry struct {
	id        uint64
	when      int64
	dur       int64
	status    int
	route     int
	method    int
	remoteLen int
	pathLen   int
	remoteBuf [logRemoteBytes]byte
	pathBuf   [logPathBytes]byte
}

// accessLogger is the ring plus its drainer goroutine.
type accessLogger struct {
	slots   []logSlot
	mask    uint64
	head    atomic.Uint64
	dropped atomic.Uint64

	names []string // route index → label, shared with the router
	w     io.Writer
	kick  chan struct{}
	stop  chan struct{}
	done  chan struct{}
}

// methodIndex compresses the dispatchable methods into a slot field.
//
//loclint:hotpath
func methodIndex(m string) int {
	switch m {
	case http.MethodGet:
		return 0
	case http.MethodPost:
		return 1
	case http.MethodDelete:
		return 2
	}
	return 3
}

var methodNames = [...]string{"GET", "POST", "DELETE", "OTHER"}

// newAccessLogger starts a logger draining into w. size is rounded up
// to a power of two.
func newAccessLogger(w io.Writer, size int, names []string) *accessLogger {
	n := 1
	for n < size {
		n <<= 1
	}
	l := &accessLogger{
		slots: make([]logSlot, n),
		mask:  uint64(n - 1),
		names: names,
		w:     w,
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go l.drain()
	return l
}

// record appends one entry. It never blocks and never allocates: a
// ticket from the head counter names the slot; lapped readers lose.
//
//loclint:hotpath
func (l *accessLogger) record(id uint64, routeIdx int, method, path, remote string, status int, d time.Duration) {
	pos := l.head.Add(1) - 1
	s := &l.slots[pos&l.mask]
	s.seq.Store(0) // invalidate while the fields are in flux
	s.id.Store(id)
	s.when.Store(time.Now().UnixNano())
	s.dur.Store(int64(d))
	var rbuf [logRemoteBytes]byte
	rn := copy(rbuf[:], remote)
	for i := range s.remote {
		s.remote[i].Store(binary.LittleEndian.Uint64(rbuf[i*8:]))
	}
	var pbuf [logPathBytes]byte
	pn := copy(pbuf[:], path)
	for i := range s.path {
		s.path[i].Store(binary.LittleEndian.Uint64(pbuf[i*8:]))
	}
	s.meta.Store(uint64(uint16(status))<<32 | uint64(uint8(routeIdx))<<24 |
		uint64(uint8(methodIndex(method)))<<16 | uint64(uint8(rn))<<8 | uint64(uint8(pn)))
	s.seq.Store(pos + 1) // publish
	select {
	case l.kick <- struct{}{}:
	default: // drainer already signalled
	}
}

// readSlot copies a slot into e and reports whether the copy is
// consistent: the sequence stamp must still match after the field
// reads, or a lapping producer tore the record.
func readSlot(s *logSlot, want uint64, e *logEntry) bool {
	e.id = s.id.Load()
	e.when = s.when.Load()
	e.dur = s.dur.Load()
	meta := s.meta.Load()
	e.status = int(meta >> 32 & 0xffff)
	e.route = int(meta >> 24 & 0xff)
	e.method = int(meta >> 16 & 0xff)
	e.remoteLen = int(meta >> 8 & 0xff)
	e.pathLen = int(meta & 0xff)
	for i := range s.remote {
		binary.LittleEndian.PutUint64(e.remoteBuf[i*8:], s.remote[i].Load())
	}
	for i := range s.path {
		binary.LittleEndian.PutUint64(e.pathBuf[i*8:], s.path[i].Load())
	}
	return s.seq.Load() == want
}

// drain is the single consumer: it follows the head, skips over lapped
// ground, formats consistent records into a reused buffer and writes
// them through one bufio.Writer.
func (l *accessLogger) drain() {
	defer close(l.done)
	bw := bufio.NewWriterSize(l.w, 16<<10)
	flush := time.NewTicker(250 * time.Millisecond)
	defer flush.Stop()
	var cursor uint64
	var e logEntry
	buf := make([]byte, 0, 256)
	// A claimed-but-unpublished slot is normally in flux for
	// nanoseconds, but a producer descheduled mid-record (or before it
	// even invalidated the slot, leaving a stale stamp from the previous
	// lap) can hold one slot hostage for a whole ring lap. The drainer
	// waits a bounded number of yields, then counts the slot dropped and
	// moves on — one stuck producer must not stall the entire log.
	const maxUnpublishedWaits = 50 // ~1 ms of 20 µs yields
	var stuckPos uint64
	var stuckWaits int
	drainReady := func(final bool) {
		for {
			h := l.head.Load()
			if cursor == h {
				return
			}
			if lag := h - cursor; lag > uint64(len(l.slots)) {
				skip := lag - uint64(len(l.slots))
				l.dropped.Add(skip)
				cursor += skip
			}
			s := &l.slots[cursor&l.mask]
			switch seq := s.seq.Load(); {
			case seq == cursor+1:
				if readSlot(s, cursor+1, &e) {
					buf = appendEntry(buf[:0], &e, l.names)
					bw.Write(buf)
				} else {
					l.dropped.Add(1) // torn by a lapping producer
				}
				cursor++
			case seq > cursor+1:
				l.dropped.Add(1) // lapped before we got here
				cursor++
			default:
				// Claimed but not yet published. On the final drain the
				// producer has already returned (Close postdates the last
				// request), so an unpublished slot cannot complete — drop
				// it; otherwise yield briefly and retry, up to the bound.
				if final {
					l.dropped.Add(1)
					cursor++
					continue
				}
				if stuckPos != cursor {
					stuckPos, stuckWaits = cursor, 0
				}
				if stuckWaits++; stuckWaits > maxUnpublishedWaits {
					l.dropped.Add(1)
					cursor++
					continue
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	for {
		drainReady(false)
		// The log is best-effort by contract (drop-oldest ring): a sink
		// write error loses entries exactly like ring pressure does.
		_ = bw.Flush()
		select {
		case <-l.kick:
		case <-flush.C:
		case <-l.stop:
			drainReady(true)
			_ = bw.Flush()
			return
		}
	}
}

// appendEntry formats one record:
//
//	t=2026-08-08T12:00:00.000000001Z req=42 route=locate method=POST status=200 dur_us=1234 remote=127.0.0.1:9 path=/locate
func appendEntry(buf []byte, e *logEntry, names []string) []byte {
	buf = append(buf, "t="...)
	buf = time.Unix(0, e.when).UTC().AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, " req="...)
	buf = strconv.AppendUint(buf, e.id, 10)
	buf = append(buf, " route="...)
	if e.route >= 0 && e.route < len(names) {
		buf = append(buf, names[e.route]...)
	} else {
		buf = append(buf, '?')
	}
	buf = append(buf, " method="...)
	m := e.method
	if m < 0 || m >= len(methodNames) {
		m = len(methodNames) - 1
	}
	buf = append(buf, methodNames[m]...)
	buf = append(buf, " status="...)
	buf = strconv.AppendInt(buf, int64(e.status), 10)
	buf = append(buf, " dur_us="...)
	buf = strconv.AppendInt(buf, e.dur/int64(time.Microsecond), 10)
	buf = append(buf, " remote="...)
	buf = append(buf, e.remoteBuf[:min(e.remoteLen, logRemoteBytes)]...)
	buf = append(buf, " path="...)
	buf = append(buf, e.pathBuf[:min(e.pathLen, logPathBytes)]...)
	return append(buf, '\n')
}

// Dropped reports how many entries were lost to lapping or tearing.
func (l *accessLogger) Dropped() uint64 { return l.dropped.Load() }

// Close stops the drainer after a final drain of published entries.
// Callers must stop serving requests first.
func (l *accessLogger) Close() error {
	select {
	case <-l.stop:
		return nil // already closed
	default:
	}
	close(l.stop)
	<-l.done
	if c, ok := l.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
