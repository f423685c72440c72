package repl

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"indoorloc/internal/ingest"
	"indoorloc/internal/trainingdb"
)

// snapshotMagic opens every snapshot response body:
//
//	8 bytes  magic "ILRREPL1"
//	u32      manifest length (little endian)
//	…        manifest JSON
//	…        ILRMAPv2 artifact (Manifest.ArtifactSize bytes)
//	…        resume blob (Manifest.ResumeSize bytes)
const snapshotMagic = "ILRREPL1"

// SourceConfig tunes the trainer-side replication source. The zero
// value is usable.
type SourceConfig struct {
	// Heartbeat is the idle-stream heartbeat cadence. Zero means 2s.
	Heartbeat time.Duration
}

// bundle is one captured publish: everything a follower bootstrap
// needs, encoded once on the compactor goroutine and served to any
// number of followers from then on.
type bundle struct {
	manifest     Manifest
	manifestJSON []byte
	artifact     []byte
	resume       []byte
}

// Source is the trainer side of replication. It captures every
// snapshot publish via ingest.Config.OnPublish and serves the two
// replication endpoints. Wire it in three steps:
//
//	src := repl.NewSource(repl.SourceConfig{})
//	mgr, err := ingest.NewManager(db, rebuild, ingest.Config{..., OnPublish: src.OnPublish})
//	src.Bind(mgr)
//
// OnPublish fires during NewManager (the initial snapshot) before
// Bind; the captured bundle is complete on its own, and the WAL
// stream endpoint answers 503 until Bind.
type Source struct {
	heartbeat time.Duration

	mu      sync.RWMutex
	mgr     *ingest.Manager
	b       *bundle
	lastErr string

	captures      uint64
	captureErrors uint64
}

// NewSource returns an unbound source.
func NewSource(cfg SourceConfig) *Source {
	hb := cfg.Heartbeat
	if hb <= 0 {
		hb = 2 * time.Second
	}
	return &Source{heartbeat: hb}
}

// Bind attaches the ingest manager whose WAL the source streams. Call
// once, after ingest.NewManager returns.
func (s *Source) Bind(m *ingest.Manager) {
	s.mu.Lock()
	s.mgr = m
	s.mu.Unlock()
}

// OnPublish captures one published snapshot as a bootstrap bundle. It
// runs on the compactor goroutine: the encode work (one artifact
// serialization per publish, same cost as the artifact file write) is
// off the serving path by construction.
func (s *Source) OnPublish(ev ingest.PublishEvent) {
	b, err := buildBundle(ev)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.captureErrors++
		s.lastErr = err.Error()
		return
	}
	s.b = b
	s.captures++
	s.lastErr = ""
}

// buildBundle encodes a publish event into a servable bundle.
func buildBundle(ev ingest.PublishEvent) (*bundle, error) {
	if ev.Compiled == nil {
		return nil, errors.New("repl: snapshot service keeps no compiled view; not replicable")
	}
	artifact, err := trainingdb.EncodeCompiled(ev.Compiled)
	if err != nil {
		return nil, fmt.Errorf("repl: encode artifact: %w", err)
	}
	resume, err := EncodeResume(ev.Compiled, ev.DB)
	if err != nil {
		return nil, err
	}
	m := Manifest{
		Epoch:        ev.Epoch,
		Generation:   ev.Snapshot.Generation,
		Watermark:    ev.Watermark,
		FloorRSSI:    ev.Compiled.FloorRSSI,
		FloorSigma:   ev.Compiled.FloorSigma,
		SnapRadius:   ev.SnapRadius,
		Entries:      ev.Compiled.NumEntries(),
		APs:          ev.Compiled.NumAPs(),
		ArtifactSize: int64(len(artifact)),
		ArtifactCRC:  crc32.ChecksumIEEE(artifact),
		ResumeSize:   int64(len(resume)),
		ResumeCRC:    crc32.ChecksumIEEE(resume),
	}
	mj, err := json.Marshal(&m)
	if err != nil {
		return nil, fmt.Errorf("repl: encode manifest: %w", err)
	}
	return &bundle{manifest: m, manifestJSON: mj, artifact: artifact, resume: resume}, nil
}

// latest returns the current bundle (nil before the first successful
// capture) and the bound manager.
func (s *Source) latest() (*bundle, *ingest.Manager) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b, s.mgr
}

// SourceStats is the source's telemetry for /healthz.
type SourceStats struct {
	// Ready reports whether a bootstrap bundle has been captured.
	Ready bool `json:"ready"`
	// Generation/Watermark identify the captured bundle (zero when not
	// ready).
	Generation uint64 `json:"generation"`
	Watermark  uint64 `json:"wal_watermark"`
	// Captures counts bundles captured; CaptureErrors counts publishes
	// that could not be (the last error is kept).
	Captures      uint64 `json:"captures"`
	CaptureErrors uint64 `json:"capture_errors"`
	LastError     string `json:"last_error,omitempty"`
}

// Stats returns the source's telemetry.
func (s *Source) Stats() SourceStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := SourceStats{
		Ready:         s.b != nil,
		Captures:      s.captures,
		CaptureErrors: s.captureErrors,
		LastError:     s.lastErr,
	}
	if s.b != nil {
		st.Generation = s.b.manifest.Generation
		st.Watermark = s.b.manifest.Watermark
	}
	return st
}

// The replication endpoints emit the same {"error":{code,message}}
// envelope as the serving API (see internal/server, "The stable error
// codes"), so a follower and a human curl see one error shape
// everywhere. Only the codes these endpoints can produce are declared
// here.
const (
	codeBadRequest         = "bad_request"
	codeNotReady           = "not_ready"
	codeGenerationConflict = "generation_conflict"
	codeInternal           = "internal"
)

type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// replError answers a JSON error body in the unified envelope; the
// replication endpoints are machine-to-machine, and followers treat
// the message as opaque text.
//
//loclint:errenvelope
func replError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{Code: code, Message: msg}})
}

// ServeSnapshot answers GET /v1/replicate/snapshot: the bootstrap
// payload for the latest published generation. An optional ?gen=<g>
// asserts the expected generation; a mismatch answers 409 with the
// latest generation so the caller can decide whether it is stale.
func (s *Source) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	b, _ := s.latest()
	if b == nil {
		replError(w, http.StatusServiceUnavailable, codeNotReady, "no replicable snapshot captured yet")
		return
	}
	if g := r.URL.Query().Get("gen"); g != "" {
		want, err := strconv.ParseUint(g, 10, 64)
		if err != nil {
			replError(w, http.StatusBadRequest, codeBadRequest, "bad gen parameter")
			return
		}
		if want != b.manifest.Generation {
			replError(w, http.StatusConflict, codeGenerationConflict,
				fmt.Sprintf("generation %d not available; latest is %d", want, b.manifest.Generation))
			return
		}
	}
	var hdr [12]byte
	copy(hdr[:], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(b.manifestJSON)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length",
		strconv.Itoa(len(hdr)+len(b.manifestJSON)+len(b.artifact)+len(b.resume)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(hdr[:]); err != nil {
		return
	}
	if _, err := w.Write(b.manifestJSON); err != nil {
		return
	}
	if _, err := w.Write(b.artifact); err != nil {
		return
	}
	w.Write(b.resume)
}

// ServeWAL answers GET /v1/replicate/wal?from=<seq>&gen=<g>: a
// chunked, unbounded stream of frames tailing the report WAL from
// just past sequence <from>. The stream opens with a hello, carries
// every record in sequence order, announces snapshot publishes once
// the stream position reaches their watermark, and heartbeats while
// idle. The optional gen parameter names the generation the follower
// already serves: the current bundle's note is suppressed only when
// it matches, so a follower reconnecting mid-history still hears
// about a publish it folded past but never recompiled for. The stream
// ends only when the client goes away, the server shuts down, or the
// log becomes unreadable — the follower reconnects with backoff.
func (s *Source) ServeWAL(w http.ResponseWriter, r *http.Request) {
	b, mgr := s.latest()
	if mgr == nil {
		replError(w, http.StatusServiceUnavailable, codeNotReady, "replication source not bound")
		return
	}
	var from, serving uint64
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			replError(w, http.StatusBadRequest, codeBadRequest, "bad from parameter")
			return
		}
		from = v
	}
	if q := r.URL.Query().Get("gen"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			replError(w, http.StatusBadRequest, codeBadRequest, "bad gen parameter")
			return
		}
		serving = v
	}
	wal := mgr.WAL()
	tail, err := ingest.OpenTail(wal.Path(), from)
	if err != nil {
		replError(w, http.StatusInternalServerError, codeInternal, "open wal tail: "+err.Error())
		return
	}
	defer tail.Close()

	rc := http.NewResponseController(w)
	bw := bufio.NewWriterSize(w, 32<<10)
	flush := func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		return rc.Flush()
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	hello := s.helloAt(wal, tail)
	hj, _ := json.Marshal(&hello)
	if err := WriteFrame(bw, FrameHello, tail.Seq(), hj); err != nil {
		return
	}
	if err := flush(); err != nil {
		return
	}
	if tail.Seq() < from {
		// The log does not reach the requested position — the follower's
		// history is ahead of ours (fresh WAL after a trainer reset, or a
		// position from another life). The hello's head tells it so; end
		// the stream and let it re-bootstrap.
		return
	}

	var announced uint64
	if b != nil && serving == b.manifest.Generation {
		// The follower already serves the current bundle's generation (it
		// bootstrapped from this very snapshot, or recompiled at its
		// note on a previous stream), so there is nothing to announce
		// until the next publish. A follower that merely folded past the
		// watermark without recompiling reports an older gen and gets
		// the note.
		announced = b.manifest.Generation
	}
	announce := func() error {
		nb, _ := s.latest()
		if nb == nil || nb.manifest.Generation == announced || tail.Seq() < nb.manifest.Watermark {
			return nil
		}
		if err := WriteFrame(bw, FramePublish, tail.Seq(), nb.manifestJSON); err != nil {
			return err
		}
		announced = nb.manifest.Generation
		return nil
	}

	ctx := r.Context()
	hb := time.NewTimer(s.heartbeat)
	defer hb.Stop()
	for {
		changed := wal.Changed()
		for {
			rec, err := tail.Next()
			if errors.Is(err, io.EOF) {
				break // durable end; wait for growth
			}
			if err != nil {
				// Corruption or I/O under the cursor: cut the stream rather
				// than ship bytes we cannot vouch for.
				return
			}
			if err := WriteFrame(bw, FrameRecord, rec.Seq, rec.Payload); err != nil {
				return
			}
			if err := announce(); err != nil {
				return
			}
		}
		// A publish can land without new records reaching this cursor
		// (the compactor swapped for records already streamed).
		if err := announce(); err != nil {
			return
		}
		if err := flush(); err != nil {
			return
		}
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(s.heartbeat)
		select {
		case <-ctx.Done():
			return
		case <-changed:
		case <-hb.C:
			h := s.helloAt(wal, tail)
			hj, _ := json.Marshal(&h)
			if err := WriteFrame(bw, FrameHeartbeat, tail.Seq(), hj); err != nil {
				return
			}
			if err := flush(); err != nil {
				return
			}
		}
	}
}

// helloAt builds the hello/heartbeat payload for the current head and
// stream cursor.
func (s *Source) helloAt(wal *ingest.WAL, tail *ingest.TailReader) Hello {
	h := Hello{
		Epoch:     wal.Epoch(),
		HeadSeq:   wal.Seq(),
		HeadBytes: wal.Size(),
		FromSeq:   tail.Seq(),
		FromBytes: tail.Offset(),
	}
	if b, _ := s.latest(); b != nil {
		h.Generation = b.manifest.Generation
		h.Watermark = b.manifest.Watermark
	}
	return h
}
