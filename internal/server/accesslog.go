package server

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The access logger is a bounded queue between the request goroutines
// and one background drainer. Recording an entry on the serving path
// copies a fixed-size logEntry into a buffered channel with
// non-blocking channel operations only — no waits and no per-request
// allocations. When producers outrun the drainer the queue fills and
// the oldest queued entries are dropped (counted, surfaced at /metrics
// as indoorloc_accesslog_dropped_total): under pressure the serving
// path never waits for the log, and every entry is either logged or
// counted dropped.

const (
	// logRemoteBytes holds the longest remote address net/http hands us
	// ("[full-ipv6]:65535" is 47 bytes); logPathBytes covers every
	// route plus a generous /track/{client} suffix. Longer values are
	// truncated — the log stays fixed-width by design.
	logRemoteBytes = 48
	logPathBytes   = 48

	// defaultLogQueue is the queue depth, in entries: ~1.3 MB of
	// entries that absorb an ~80 ms drainer stall at 100k req/s.
	defaultLogQueue = 8192
)

// logEntry is one request's record, copied whole through the queue.
type logEntry struct {
	id        uint64
	when      int64 // unix nanoseconds
	dur       int64 // request latency, nanoseconds
	status    int
	route     int
	method    int
	remoteLen int
	pathLen   int
	remoteBuf [logRemoteBytes]byte
	pathBuf   [logPathBytes]byte
}

// accessLogger is the queue plus its drainer goroutine.
type accessLogger struct {
	queue   chan logEntry
	dropped atomic.Uint64

	names []string // route index → label, shared with the router
	w     io.Writer
	stop  chan struct{}
	done  chan struct{}
}

// methodIndex compresses the dispatchable methods into an entry field.
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

// newAccessLogger starts a logger draining into w through a queue of
// size entries.
func newAccessLogger(w io.Writer, size int, names []string) *accessLogger {
	l := &accessLogger{
		queue: make(chan logEntry, size),
		names: names,
		w:     w,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go l.drain()
	return l
}

// record queues one entry. It never blocks and never allocates: when
// the queue is full it takes out the oldest entry and counts it
// dropped, and if another producer fills the freed place first it
// counts its own entry dropped too.
//
//loclint:hotpath
func (l *accessLogger) record(id uint64, routeIdx int, method, path, remote string, status int, d time.Duration) {
	e := logEntry{id: id, when: time.Now().UnixNano(), dur: int64(d),
		status: status, route: routeIdx, method: methodIndex(method)}
	e.remoteLen = copy(e.remoteBuf[:], remote)
	e.pathLen = copy(e.pathBuf[:], path)
	select {
	case l.queue <- e:
		return
	default:
	}
	select {
	case <-l.queue:
		l.dropped.Add(1)
	default: // the drainer emptied a place meanwhile
	}
	select {
	case l.queue <- e:
	default:
		l.dropped.Add(1)
	}
}

// drain is the single consumer: it formats each entry into a reused
// buffer and writes it through one bufio.Writer, flushing whenever the
// queue runs empty, on a 250 ms ticker while it never does, and after
// a final drain on Close.
func (l *accessLogger) drain() {
	defer close(l.done)
	bw := bufio.NewWriterSize(l.w, 16<<10)
	flush := time.NewTicker(250 * time.Millisecond)
	defer flush.Stop()
	buf := make([]byte, 0, 256)
	// The log is best-effort by contract (drop-oldest): a sink write
	// error loses entries exactly like queue pressure does.
	for {
		select {
		case e := <-l.queue:
			buf = appendEntry(buf[:0], &e, l.names)
			bw.Write(buf)
			if len(l.queue) == 0 {
				_ = bw.Flush()
			}
		case <-flush.C:
			_ = bw.Flush()
		case <-l.stop:
			for {
				select {
				case e := <-l.queue:
					buf = appendEntry(buf[:0], &e, l.names)
					bw.Write(buf)
				default:
					_ = bw.Flush()
					return
				}
			}
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

// Dropped reports how many entries were lost to queue pressure.
func (l *accessLogger) Dropped() uint64 { return l.dropped.Load() }

// Close stops the drainer after a final drain of the queued entries.
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
