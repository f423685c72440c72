package repl

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/ingest"
	"indoorloc/internal/trainingdb"
)

// Follower states, reported by Stats and /healthz.
const (
	// StateBootstrapping: fetching and decoding a snapshot payload (or
	// backing off to retry one).
	StateBootstrapping = "bootstrapping"
	// StateCatchingUp: streaming the WAL with the head ahead of the
	// applied sequence.
	StateCatchingUp = "catching_up"
	// StateStreaming: at the head, folding records as they arrive.
	StateStreaming = "streaming"
	// StateDisconnected: trainer unreachable; backing off to reconnect.
	StateDisconnected = "disconnected"
)

// internal state codes backing the atomic.
const (
	stateBootstrapping int32 = iota
	stateCatchingUp
	stateStreaming
	stateDisconnected
)

var stateNames = [...]string{StateBootstrapping, StateCatchingUp, StateStreaming, StateDisconnected}

// NamesMode selects how a follower's published services resolve
// symbolic location names; see FollowerConfig.Names.
type NamesMode int

const (
	// NamesFromEntries derives the name map from the replica's entries.
	NamesFromEntries NamesMode = iota
	// NamesNone publishes position-only services (no name map).
	NamesNone
)

// FollowerConfig configures a follower.
type FollowerConfig struct {
	// TrainerURL is the trainer's base URL (scheme://host:port);
	// required.
	TrainerURL string
	// Algorithm selects the serving locator. Only the compiled-servable
	// algorithms apply (probabilistic, nnss, knn, wknn, sector); the
	// default is core.AlgoProbabilistic. Match the trainer's algorithm
	// and build knobs for answer-identical serving.
	Algorithm string
	// Build carries the locator build knobs (quantization, top-k);
	// mirror the trainer's.
	Build core.BuildConfig
	// Names controls the symbolic-name layer of published services.
	// The zero value, NamesFromEntries, derives the name map from the
	// replica's entries — right when the trainer serves its training
	// grid's names. NamesNone publishes position-only services for a
	// trainer that runs without a name map; a mismatch on this knob
	// breaks trainer/follower response identity (and on big maps the
	// per-locate nearest-name scan is O(entries), so a follower must
	// not pay it when its trainer doesn't).
	Names NamesMode
	// Client overrides the HTTP client. The default has no timeout —
	// the WAL stream is deliberately unbounded; cancellation comes from
	// Close.
	Client *http.Client
	// ReconnectMin/ReconnectMax bound the jittered exponential backoff
	// after trainer loss or a failed bootstrap. Zero means 250ms / 5s.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
}

// Follower is the read-fleet side of replication: it bootstraps a
// replica radio map from the trainer's snapshot payload, tails the
// WAL folding every record exactly as the trainer's compactor did,
// and republishes through a core.SnapshotRegistry on every trainer
// publish — so a server reading the registry serves answers identical
// to the trainer's at the same generation, with hot swaps and an
// allocation-free locate path, while holding no authority over the
// map (its world is discarded and re-bootstrapped whenever the
// trainer's history changes under it).
type Follower struct {
	cfg    FollowerConfig
	client *http.Client

	reg    *core.SnapshotRegistry
	ready  chan struct{} // closed after the first successful bootstrap
	stop   chan struct{}
	done   chan struct{}
	cancel context.CancelFunc
	once   sync.Once

	// Run-goroutine-owned world state (no locks needed).
	replica    *trainingdb.DB
	floorRSSI  float64
	floorSigma float64
	snapRadius float64

	// Shared gauges and counters.
	state        atomic.Int32
	epoch        atomic.Uint64
	gen          atomic.Uint64
	appliedSeq   atomic.Uint64
	headSeq      atomic.Uint64
	appliedBytes atomic.Int64
	headBytes    atomic.Int64
	lastProgress atomic.Int64 // UnixNano of the last applied record or caught-up observation
	bootstraps   atomic.Uint64
	reconnects   atomic.Uint64
	regressions  atomic.Uint64
	staleRejects atomic.Uint64
	folded       atomic.Uint64
	dropped      atomic.Uint64
	recompiles   atomic.Uint64
	lastErr      atomic.Value // string
}

// NewFollower validates the configuration. Call Start to connect.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.TrainerURL == "" {
		return nil, errors.New("repl: FollowerConfig.TrainerURL required")
	}
	u, err := url.Parse(cfg.TrainerURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("repl: bad trainer URL %q", cfg.TrainerURL)
	}
	cfg.TrainerURL = strings.TrimRight(cfg.TrainerURL, "/")
	if cfg.Algorithm == "" {
		cfg.Algorithm = core.AlgoProbabilistic
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 250 * time.Millisecond
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = 5 * time.Second
		if cfg.ReconnectMax < cfg.ReconnectMin {
			cfg.ReconnectMax = cfg.ReconnectMin
		}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	f := &Follower{
		cfg:    cfg,
		client: client,
		ready:  make(chan struct{}),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	f.state.Store(stateBootstrapping)
	f.lastErr.Store("")
	return f, nil
}

// Start launches the follow loop and blocks until the first snapshot
// bootstrap succeeds (so Registry is valid) or ctx expires. The loop
// keeps running — reconnecting, re-bootstrapping — until Close.
func (f *Follower) Start(ctx context.Context) error {
	runCtx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(runCtx)
	select {
	case <-f.ready:
		return nil
	case <-ctx.Done():
		f.Close()
		return fmt.Errorf("repl: bootstrap did not complete: %w (last error: %s)", ctx.Err(), f.lastError())
	}
}

// Registry returns the snapshot registry the follower publishes
// through. Valid only after Start returns nil. Read handlers call
// this per request, so it stays an allocation-free field load.
//
//loclint:hotpath
func (f *Follower) Registry() *core.SnapshotRegistry { return f.reg }

// Close stops the follow loop and waits for it to exit. The registry
// keeps serving its last published snapshot.
func (f *Follower) Close() error {
	f.once.Do(func() {
		close(f.stop)
		if f.cancel != nil {
			f.cancel()
		}
	})
	<-f.done
	return nil
}

// run is the follow loop: bootstrap when the world is empty or was
// discarded, stream until disconnect, back off with jitter, repeat.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	backoff := f.cfg.ReconnectMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		if f.replica == nil {
			f.state.Store(stateBootstrapping)
			if err := f.bootstrap(ctx); err != nil {
				f.setErr(err)
				if !f.sleep(ctx, backoff) {
					return
				}
				backoff = f.grow(backoff)
				continue
			}
			backoff = f.cfg.ReconnectMin
		}
		reset, err := f.stream(ctx)
		select {
		case <-f.stop:
			return
		default:
		}
		f.state.Store(stateDisconnected)
		f.reconnects.Add(1)
		if err != nil {
			f.setErr(err)
		}
		if reset {
			// The trainer's history changed under us (epoch change, head
			// regression, or a fold divergence): every position we hold is
			// meaningless. Discard the world; the next loop re-bootstraps
			// accepting whatever the trainer now serves.
			f.replica = nil
			f.epoch.Store(0)
			f.gen.Store(0)
			f.appliedSeq.Store(0)
			f.appliedBytes.Store(0)
			f.regressions.Add(1)
		}
		if !f.sleep(ctx, backoff) {
			return
		}
		backoff = f.grow(backoff)
	}
}

// grow doubles the backoff up to the cap.
func (f *Follower) grow(d time.Duration) time.Duration {
	d *= 2
	if d > f.cfg.ReconnectMax {
		d = f.cfg.ReconnectMax
	}
	return d
}

// sleep waits a jittered duration in [d/2, d], interruptible by stop;
// it reports whether the loop should continue.
func (f *Follower) sleep(ctx context.Context, d time.Duration) bool {
	j := d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(j)
	defer t.Stop()
	select {
	case <-f.stop:
		return false
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (f *Follower) setErr(err error) { f.lastErr.Store(err.Error()) }

func (f *Follower) lastError() string {
	s, _ := f.lastErr.Load().(string)
	return s
}

// markProgress stamps the lag-seconds clock.
func (f *Follower) markProgress() { f.lastProgress.Store(time.Now().UnixNano()) }

// bootstrap fetches the snapshot payload, verifies it end to end,
// reconstructs the replica database, and publishes the first (or a
// fresh) serving snapshot.
func (f *Follower) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.TrainerURL+"/v1/replicate/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("repl: snapshot fetch: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var hdr [12]byte
	if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
		return fmt.Errorf("repl: snapshot header: %w", err)
	}
	if string(hdr[:8]) != snapshotMagic {
		return fmt.Errorf("repl: snapshot response has bad magic %q", hdr[:8])
	}
	mlen := binary.LittleEndian.Uint32(hdr[8:12])
	if mlen == 0 || mlen > maxManifestSize {
		return fmt.Errorf("repl: snapshot manifest length %d out of range", mlen)
	}
	mj := make([]byte, mlen)
	if _, err := io.ReadFull(resp.Body, mj); err != nil {
		return fmt.Errorf("repl: snapshot manifest: %w", err)
	}
	m, err := ParseManifest(mj)
	if err != nil {
		return err
	}
	// Staleness: within the epoch we already follow, never step the
	// serving generation backwards. (After a world reset the epoch
	// gauge is zero and anything is accepted.)
	if e := f.epoch.Load(); e != 0 && m.Epoch == e && m.Generation < f.gen.Load() {
		f.staleRejects.Add(1)
		return fmt.Errorf("repl: stale snapshot: generation %d < serving %d", m.Generation, f.gen.Load())
	}
	artifact := make([]byte, m.ArtifactSize)
	if _, err := io.ReadFull(resp.Body, artifact); err != nil {
		return fmt.Errorf("repl: snapshot artifact: %w", err)
	}
	resume := make([]byte, m.ResumeSize)
	if _, err := io.ReadFull(resp.Body, resume); err != nil {
		return fmt.Errorf("repl: snapshot resume blob: %w", err)
	}
	if got := crc32.ChecksumIEEE(artifact); got != m.ArtifactCRC {
		return fmt.Errorf("repl: snapshot artifact CRC mismatch (%08x != %08x)", got, m.ArtifactCRC)
	}
	if got := crc32.ChecksumIEEE(resume); got != m.ResumeCRC {
		return fmt.Errorf("repl: snapshot resume CRC mismatch (%08x != %08x)", got, m.ResumeCRC)
	}
	c, err := trainingdb.DecodeCompiled(artifact, trainingdb.DecodeOptions{VerifyCRC: true})
	if err != nil {
		return fmt.Errorf("repl: decode artifact: %w", err)
	}
	if c.Generation != m.Generation {
		return fmt.Errorf("repl: artifact generation %d != manifest %d", c.Generation, m.Generation)
	}
	sigmas, err := DecodeResume(resume, c)
	if err != nil {
		return err
	}
	replica, err := BuildReplica(c, sigmas)
	if err != nil {
		return err
	}
	if err := f.publish(c, m.Generation); err != nil {
		return err
	}
	f.replica = replica
	f.floorRSSI, f.floorSigma = c.FloorRSSI, c.FloorSigma
	f.snapRadius = m.SnapRadius
	f.epoch.Store(m.Epoch)
	f.appliedSeq.Store(m.Watermark)
	f.appliedBytes.Store(0) // anchored by the stream hello's FromBytes
	if m.Watermark > f.headSeq.Load() {
		f.headSeq.Store(m.Watermark)
	}
	f.bootstraps.Add(1)
	f.markProgress()
	return nil
}

// publish builds a serving snapshot from the compiled view and swaps
// it into the registry (creating the registry on the first call).
// The build runs on the follow goroutine; readers only ever see the
// finished atomic swap.
func (f *Follower) publish(c *trainingdb.Compiled, gen uint64) error {
	opts := []core.Option{
		core.WithCompiled(c),
		core.WithAlgorithm(f.cfg.Algorithm),
		core.WithConfig(f.cfg.Build),
	}
	if f.cfg.Names == NamesFromEntries {
		opts = append(opts, core.WithEntryNames())
	}
	in, err := core.New(opts...)
	if err != nil {
		return fmt.Errorf("repl: build follower service: %w", err)
	}
	snap := &core.Snapshot{Generation: gen, Service: in.Service, BuiltAt: time.Now()}
	if f.reg == nil {
		reg, err := core.NewSnapshotRegistry(snap)
		if err != nil {
			return err
		}
		f.reg = reg
		close(f.ready)
	} else {
		f.reg.Publish(snap)
	}
	f.gen.Store(gen)
	return nil
}

// stream tails the WAL from the applied sequence, folding records and
// republishing on publish notes. It returns reset=true when the
// trainer's history is incompatible with the follower's world (the
// caller discards it and re-bootstraps) and reset=false for plain
// disconnects (the caller reconnects from the applied sequence).
func (f *Follower) stream(ctx context.Context) (reset bool, err error) {
	from := f.appliedSeq.Load()
	u := f.cfg.TrainerURL + "/v1/replicate/wal?from=" + strconv.FormatUint(from, 10) +
		"&gen=" + strconv.FormatUint(f.gen.Load(), 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("repl: wal stream: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	fr := NewFrameReader(resp.Body)
	frame, err := fr.Next()
	if err != nil {
		return false, fmt.Errorf("repl: wal stream hello: %w", err)
	}
	if frame.Type != FrameHello {
		return false, fmt.Errorf("repl: wal stream opened with frame type %d, want hello", frame.Type)
	}
	hello, err := ParseHello(frame.Payload)
	if err != nil {
		return false, err
	}
	if hello.Epoch != f.epoch.Load() {
		return true, fmt.Errorf("repl: trainer epoch changed (%x → %x); re-bootstrapping", f.epoch.Load(), hello.Epoch)
	}
	if hello.HeadSeq < from {
		return true, fmt.Errorf("repl: trainer head %d behind applied %d; history regressed", hello.HeadSeq, from)
	}
	if hello.FromSeq != from {
		return false, fmt.Errorf("repl: stream cursor %d, requested %d", hello.FromSeq, from)
	}
	f.headSeq.Store(hello.HeadSeq)
	f.headBytes.Store(hello.HeadBytes)
	f.appliedBytes.Store(hello.FromBytes)
	f.observeLag()

	for {
		frame, err := fr.Next()
		if err != nil {
			return false, fmt.Errorf("repl: wal stream: %w", err)
		}
		switch frame.Type {
		case FrameRecord:
			want := f.appliedSeq.Load() + 1
			if frame.Seq != want {
				return false, fmt.Errorf("repl: wal stream gap: got seq %d, want %d", frame.Seq, want)
			}
			var rep ingest.Report
			if err := json.Unmarshal(frame.Payload, &rep); err != nil {
				return false, fmt.Errorf("repl: undecodable record %d: %w", frame.Seq, err)
			}
			f.fold(rep)
			f.appliedSeq.Store(frame.Seq)
			f.appliedBytes.Add(int64(FrameRecordOverhead + len(frame.Payload)))
			if frame.Seq > f.headSeq.Load() {
				f.headSeq.Store(frame.Seq)
			}
			f.markProgress()
			f.observeLag()
		case FramePublish:
			m, err := ParseManifest(frame.Payload)
			if err != nil {
				return false, err
			}
			if m.Epoch != f.epoch.Load() {
				return true, fmt.Errorf("repl: publish note from epoch %x, following %x", m.Epoch, f.epoch.Load())
			}
			applied := f.appliedSeq.Load()
			if m.Watermark > applied {
				return false, fmt.Errorf("repl: publish note watermark %d ahead of stream position %d", m.Watermark, applied)
			}
			if m.Watermark == applied && m.Generation != f.replica.Generation() {
				return true, fmt.Errorf("repl: diverged: replica generation %d != trainer %d at seq %d",
					f.replica.Generation(), m.Generation, applied)
			}
			f.floorRSSI, f.floorSigma = m.FloorRSSI, m.FloorSigma
			f.snapRadius = m.SnapRadius
			c := f.replica.Compile(f.floorRSSI, f.floorSigma)
			if err := f.publish(c, f.replica.Generation()); err != nil {
				return false, err
			}
			f.recompiles.Add(1)
		case FrameHeartbeat:
			hb, err := ParseHello(frame.Payload)
			if err != nil {
				return false, err
			}
			if hb.Epoch != f.epoch.Load() {
				return true, fmt.Errorf("repl: heartbeat from epoch %x, following %x", hb.Epoch, f.epoch.Load())
			}
			if hb.HeadSeq < f.appliedSeq.Load() {
				return true, fmt.Errorf("repl: trainer head %d regressed behind applied %d", hb.HeadSeq, f.appliedSeq.Load())
			}
			f.headSeq.Store(hb.HeadSeq)
			f.headBytes.Store(hb.HeadBytes)
			f.observeLag()
		default:
			return false, fmt.Errorf("repl: unexpected frame type %d mid-stream", frame.Type)
		}
	}
}

// FrameRecordOverhead is the on-disk WAL framing per record (length +
// CRC); byte-lag accounting adds it to each payload so follower bytes
// track the trainer's file offsets.
const FrameRecordOverhead = 8

// fold applies one WAL record to the replica exactly as the trainer's
// compactor does — same resolution rules, same Welford update — minus
// the copy-on-write clone: the replica's entries are never shared
// with published snapshots (Compile deep-copies into matrices).
func (f *Follower) fold(r ingest.Report) {
	name, pos, ok := ingest.ResolveReport(f.replica, r, f.snapRadius)
	if !ok {
		f.dropped.Add(1)
		return
	}
	f.replica.Fold(name, pos, r.Observation)
	f.folded.Add(1)
}

// observeLag refreshes the state gauge from the head/applied pair and
// stamps the progress clock when fully caught up.
func (f *Follower) observeLag() {
	if f.appliedSeq.Load() >= f.headSeq.Load() {
		f.state.Store(stateStreaming)
		f.markProgress()
	} else {
		f.state.Store(stateCatchingUp)
	}
}

// FollowerStats is the follower's telemetry for /healthz + /metrics.
type FollowerStats struct {
	// State is one of the State* constants.
	State string `json:"state"`
	// Generation is the serving snapshot's generation.
	Generation uint64 `json:"generation"`
	// AppliedSeq/HeadSeq are the replication cursor and the trainer's
	// last known head.
	AppliedSeq uint64 `json:"applied_seq"`
	HeadSeq    uint64 `json:"head_seq"`
	// LagSeqs/LagBytes/LagSeconds measure how far behind the trainer
	// this follower is. LagSeconds is zero while caught up, otherwise
	// the time since replication last made progress.
	LagSeqs    uint64  `json:"lag_seqs"`
	LagBytes   int64   `json:"lag_bytes"`
	LagSeconds float64 `json:"lag_seconds"`
	// Bootstraps counts successful snapshot bootstraps; Reconnects
	// counts stream teardowns; Regressions counts world resets (epoch
	// change, head regression, divergence); StaleRejects counts
	// bootstrap manifests refused as older than the serving generation.
	Bootstraps   uint64 `json:"bootstraps"`
	Reconnects   uint64 `json:"reconnects"`
	Regressions  uint64 `json:"regressions"`
	StaleRejects uint64 `json:"stale_rejects"`
	// Folded/Dropped/Recompiles mirror the trainer-side fold counters.
	Folded     uint64 `json:"folded"`
	Dropped    uint64 `json:"dropped"`
	Recompiles uint64 `json:"recompiles"`
	// LastError is the most recent bootstrap/stream error, empty when
	// none has occurred.
	LastError string `json:"last_error,omitempty"`
}

// Stats returns a point-in-time counter snapshot.
func (f *Follower) Stats() FollowerStats {
	applied, head := f.appliedSeq.Load(), f.headSeq.Load()
	st := FollowerStats{
		State:        stateNames[f.state.Load()],
		Generation:   f.gen.Load(),
		AppliedSeq:   applied,
		HeadSeq:      head,
		Bootstraps:   f.bootstraps.Load(),
		Reconnects:   f.reconnects.Load(),
		Regressions:  f.regressions.Load(),
		StaleRejects: f.staleRejects.Load(),
		Folded:       f.folded.Load(),
		Dropped:      f.dropped.Load(),
		Recompiles:   f.recompiles.Load(),
		LastError:    f.lastError(),
	}
	if head > applied {
		st.LagSeqs = head - applied
		if hb, ab := f.headBytes.Load(), f.appliedBytes.Load(); hb > ab && ab > 0 {
			st.LagBytes = hb - ab
		}
		if p := f.lastProgress.Load(); p != 0 {
			st.LagSeconds = time.Since(time.Unix(0, p)).Seconds()
		}
	}
	return st
}
