package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/trainingdb"
)

// Report is one crowdsourced fingerprint: an observation map (BSSID →
// mean RSSI in dBm) tagged with where it was taken — a named training
// location, a plan-frame coordinate, or both (the name wins for
// existing locations; a new name needs the coordinate).
type Report struct {
	// Name is the training-location tag; empty for coordinate-only
	// reports.
	Name string `json:"name,omitempty"`
	// Pos is the plan-frame position, when the reporter knows it.
	Pos *ReportPos `json:"pos,omitempty"`
	// Observation is the signal vector, one mean RSSI per audible AP.
	Observation map[string]float64 `json:"observation"`
}

// ReportPos is a report's plan-frame coordinate.
type ReportPos struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Validate applies the acceptance rules a report must pass before it
// is journaled: a non-empty observation with RSSI levels in the
// plausible range, at least one of name or position, and a finite
// position. A valid report always encodes (AppendReport).
func (r *Report) Validate() error {
	if len(r.Observation) == 0 {
		return errors.New("report needs a non-empty observation")
	}
	if r.Name == "" && r.Pos == nil {
		return errors.New("report needs a location name or a position")
	}
	if r.Pos != nil && !(finite(r.Pos.X) && finite(r.Pos.Y)) {
		return fmt.Errorf("report position (%v, %v) is not finite", r.Pos.X, r.Pos.Y)
	}
	for b, v := range r.Observation {
		if b == "" {
			return errors.New("observation has an empty BSSID")
		}
		if !(v >= -120 && v <= 0) { // NaN fails both
			return fmt.Errorf("observation %s has RSSI %v outside [-120, 0]", b, v)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Config tunes the pipeline. The zero value is usable: defaults are
// filled in by NewManager.
type Config struct {
	// WALPath is the report journal; required.
	WALPath string
	// SyncEveryAppend fsyncs the WAL on every accepted batch. Off by
	// default: flush-to-OS already survives process death, and fsync per
	// report caps throughput at disk latency.
	SyncEveryAppend bool
	// QueueDepth bounds the accepted-but-unfolded backlog; a full queue
	// rejects submissions with ErrQueueFull (the HTTP layer turns that
	// into 429 + Retry-After), a deeper batch with ErrBatchTooLarge
	// (413). Zero means 1024.
	QueueDepth int
	// FlushReports triggers a recompile-and-swap after this many folded
	// reports. Zero means 256.
	FlushReports int
	// FlushInterval triggers a swap when reports have been folded but
	// the count trigger has not fired. Zero means 2s.
	FlushInterval time.Duration
	// SnapRadius folds a coordinate-only report into the nearest
	// existing training entry when it lies within this many plan-frame
	// feet; farther reports found a new entry at their coordinate. Zero
	// means 10.
	SnapRadius float64
	// RetryAfter is the backoff advertised with ErrQueueFull. Zero
	// means 1s.
	RetryAfter time.Duration
	// ArtifactPath, when set, makes every published snapshot also emit
	// its compiled radio map as a v2 artifact at this path, and a
	// "<ArtifactPath>.manifest" sidecar with its generation, WAL
	// watermark and epoch (tdbtool inspect reads it). Both are written
	// atomically on the compactor goroutine; a service with no compiled
	// view (one built outside core.New) counts an artifact error, and
	// the snapshot still serves.
	ArtifactPath string
	// OnPublish, when set, is called on the compactor goroutine after
	// every snapshot publish (including the initial build) with the
	// frozen state the snapshot was built from. The replication source
	// uses it to capture the artifact + exact-resume payload a follower
	// bootstraps from. The callback must not block for long — it runs
	// on the fold/recompile path (never the serving path) — and must
	// treat the event's DB and Compiled as immutable. Only a set
	// OnPublish freezes the master at each publish, so that later folds
	// clone each entry they touch; without it they fold in place.
	OnPublish func(PublishEvent)
}

// PublishEvent describes one published snapshot to Config.OnPublish.
type PublishEvent struct {
	// Snapshot is what was published to the registry.
	Snapshot *core.Snapshot
	// DB is the frozen database view the snapshot was built from. Its
	// entries are protected by the compactor's copy-on-write discipline:
	// they are never mutated after the freeze, so the callback may read
	// them at any later time.
	DB *trainingdb.DB
	// Compiled is the service's posting-list radio-map view, nil for a
	// service built outside core.New (then the snapshot cannot be
	// replicated from).
	Compiled *trainingdb.Compiled
	// Watermark is the WAL sequence folded into the snapshot: every
	// record with seq ≤ Watermark is reflected (folded, or counted
	// dropped by the resolution rules), none above it are.
	Watermark uint64
	// Epoch is the WAL lifetime identifier (WAL.Epoch).
	Epoch uint64
	// SnapRadius is the coordinate-snap rule the trainer folds with; a
	// follower must mirror it exactly to stay byte-identical.
	SnapRadius float64
}

func (c *Config) fillDefaults() {
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.FlushReports == 0 {
		c.FlushReports = 256
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 2 * time.Second
	}
	if c.SnapRadius == 0 {
		c.SnapRadius = 10
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
}

// ErrQueueFull is returned by Submit when the bounded queue cannot
// take the reports; the caller should back off for RetryAfter.
var ErrQueueFull = errors.New("ingest: report queue full")

// ErrBatchTooLarge is returned by Submit for a batch of more reports
// than Config.QueueDepth: no backoff makes room for it, so the caller
// must split it.
var ErrBatchTooLarge = errors.New("ingest: batch larger than the report queue")

// ErrInvalidReport wraps Validate failures surfaced by Submit, so the
// HTTP layer can answer 400 for bad reports and 500 for I/O trouble.
var ErrInvalidReport = errors.New("invalid report")

// Rebuilder turns the master database into a complete serving state:
// it builds the locator (compiling the radio map) and the name/room
// resolution for exactly that entry set. It runs on the compactor
// goroutine — off the serving path — and must neither mutate db nor
// retain it: later folds may change it in place.
// The manager calls it for the initial snapshot and for every publish
// it cannot patch (see Folder.Snapshot).
type Rebuilder func(db *trainingdb.DB) (*core.Service, error)

// Stats is a point-in-time counter snapshot for telemetry (/healthz).
type Stats struct {
	// Accepted counts reports journaled and queued.
	Accepted uint64 `json:"accepted"`
	// RejectedFull counts reports refused with ErrQueueFull.
	RejectedFull uint64 `json:"rejected_queue_full"`
	// Folded counts reports folded into the master database.
	Folded uint64 `json:"folded"`
	// Dropped counts reports that could not be folded (a new name with
	// no coordinate).
	Dropped uint64 `json:"dropped"`
	// Queued is the current accepted-but-unfolded backlog.
	Queued int `json:"queued"`
	// Swaps counts published snapshots (the initial build excluded).
	Swaps uint64 `json:"swaps"`
	// PatchedSwaps and FullSwaps split Swaps by how the snapshot was
	// built: by patching the previous view's folded entries, or in
	// full through the Rebuilder (a structural change, or a service
	// with no recorded recipe).
	PatchedSwaps uint64 `json:"patched_swaps"`
	FullSwaps    uint64 `json:"full_swaps"`
	// SwapErrors counts rebuilds that failed; the previous snapshot
	// keeps serving.
	SwapErrors uint64 `json:"swap_errors"`
	// Artifacts counts compiled radio-map artifacts written to
	// Config.ArtifactPath (zero when no path is configured).
	Artifacts uint64 `json:"artifacts"`
	// ArtifactErrors counts artifact writes that failed; the snapshot
	// serves regardless.
	ArtifactErrors uint64 `json:"artifact_errors"`
	// Replayed counts reports recovered from the WAL at startup.
	Replayed int `json:"replayed"`
	// ReplayDropped counts the torn or corrupt trailing records the
	// startup replay truncated away (never acknowledged, so nothing
	// accepted is lost; nonzero after a crash mid-append).
	ReplayDropped int `json:"replay_dropped"`
	// Applied is the WAL sequence of the last report the compactor
	// resolved.
	Applied uint64 `json:"applied_seq"`
	// Watermark is the WAL sequence captured by the latest published
	// snapshot (what a replication bootstrap resumes from).
	Watermark uint64 `json:"snapshot_watermark"`
	// LastSwap is when the current snapshot was published (zero before
	// the first swap).
	LastSwap time.Time `json:"last_swap"`
}

// Manager owns the live pipeline: the WAL, the bounded queue, the
// folder over the master database (exclusively owned by the compactor
// goroutine after Start), and the snapshot registry the server reads
// from.
type Manager struct {
	cfg    Config
	wal    *WAL
	reg    *core.SnapshotRegistry
	folder *Folder

	// slots is the admission semaphore and queue the report buffer:
	// Submit acquires a slot (non-blocking; failure is backpressure),
	// journals, then enqueues — so the send can never block. The
	// compactor releases the slot after dequeueing. Each queued report
	// carries its WAL sequence so the compactor can watermark
	// snapshots for replication.
	slots chan struct{}
	queue chan queuedReport
	// appendMu orders journal append and queue insertion together (see
	// Submit).
	appendMu sync.Mutex

	// applied is the WAL sequence of the last report the compactor
	// resolved (folded or dropped); snapshots are watermarked with it.
	// Written by the compactor (and NewManager's replay), read by
	// Stats.
	applied atomic.Uint64
	// watermark is the applied sequence captured by the latest
	// published snapshot.
	watermark atomic.Uint64

	stop chan struct{}
	done chan struct{}

	accepted       atomic.Uint64
	rejectedFull   atomic.Uint64
	folded         atomic.Uint64
	dropped        atomic.Uint64
	swaps          atomic.Uint64
	patchedSwaps   atomic.Uint64
	fullSwaps      atomic.Uint64
	swapErrors     atomic.Uint64
	artifacts      atomic.Uint64
	artifactErrors atomic.Uint64
	replayed       int
	replayDropped  int
	lastSwap       atomic.Int64 // UnixNano; 0 = never
}

// NewManager opens (and replays) the WAL, folds every recovered report
// into db, publishes the initial snapshot through a fresh registry,
// and starts the compactor. db must not be used by the caller
// afterwards — the manager owns it. Close releases the WAL and stops
// the compactor.
func NewManager(db *trainingdb.DB, rebuild Rebuilder, cfg Config) (*Manager, error) {
	if db == nil {
		return nil, errors.New("ingest: nil training database")
	}
	if rebuild == nil {
		return nil, errors.New("ingest: nil rebuilder")
	}
	if cfg.WALPath == "" {
		return nil, errors.New("ingest: Config.WALPath required")
	}
	cfg.fillDefaults()
	m := &Manager{
		cfg:    cfg,
		folder: NewFolder(db, cfg.SnapRadius, rebuild, nil),
		slots:  make(chan struct{}, cfg.QueueDepth),
		queue:  make(chan queuedReport, cfg.QueueDepth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Replay folds each recovered report as it is read, so a restart
	// never holds the venue's whole report history at once.
	wal, dropped, err := OpenWAL(cfg.WALPath, cfg.SyncEveryAppend, func(r Report) {
		m.replayed++
		m.apply(r, uint64(m.replayed))
	})
	if err != nil {
		return nil, err
	}
	m.wal = wal
	m.replayDropped = dropped
	snap, _, err := m.folder.Snapshot()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("ingest: initial snapshot: %w", err), wal.Close())
	}
	if m.reg, err = core.NewSnapshotRegistry(snap); err != nil {
		return nil, errors.Join(err, wal.Close())
	}
	// Emit the initial artifact (and publish event) too, so a
	// configured path — and a replication source — is valid from the
	// first request, not only after the first live swap.
	m.finishPublish(snap)
	go m.compact()
	return m, nil
}

// Registry returns the snapshot registry the manager publishes to.
func (m *Manager) Registry() *core.SnapshotRegistry { return m.reg }

// RetryAfter is the backoff the HTTP layer advertises on ErrQueueFull.
func (m *Manager) RetryAfter() time.Duration { return m.cfg.RetryAfter }

// Submit validates, journals and queues the reports, all-or-nothing.
// It returns ErrBatchTooLarge when the batch exceeds the queue's whole
// depth, and ErrQueueFull when the queue cannot take the batch now —
// nothing is journaled in either case, so a client retry cannot
// duplicate reports. On nil return every report is durable in the WAL
// and will be folded by the compactor.
func (m *Manager) Submit(reports ...Report) error {
	if len(reports) == 0 {
		return fmt.Errorf("ingest: %w: empty submission", ErrInvalidReport)
	}
	if len(reports) > cap(m.slots) {
		return fmt.Errorf("%w: %d reports, queue depth %d", ErrBatchTooLarge, len(reports), cap(m.slots))
	}
	for i := range reports {
		if err := reports[i].Validate(); err != nil {
			return fmt.Errorf("ingest: %w %d: %w", ErrInvalidReport, i, err)
		}
	}
	// Admission: grab one slot per report before touching the WAL, so
	// acknowledged reports always fit in the queue and a full queue
	// costs nothing durable.
	for i := range reports {
		select {
		case m.slots <- struct{}{}:
		default:
			for ; i > 0; i-- {
				<-m.slots
			}
			m.rejectedFull.Add(uint64(len(reports)))
			return ErrQueueFull
		}
	}
	// The append lock spans journal + enqueue so the compactor folds in
	// exactly WAL order: without it two concurrent submissions could
	// enqueue in the opposite order of their journal sequences, and a
	// follower replaying the WAL (strictly in sequence order) would fold
	// the same reports in a different order than the trainer did —
	// Welford updates do not commute bit-for-bit. The critical section
	// adds one buffered-channel send per report over what the WAL mutex
	// already serialized.
	m.appendMu.Lock()
	last, err := m.wal.Append(reports...)
	if err != nil {
		m.appendMu.Unlock()
		for range reports {
			<-m.slots
		}
		return err
	}
	first := last - uint64(len(reports)) + 1
	for i := range reports {
		// Cannot block: slots bound occupancy.
		m.queue <- queuedReport{r: reports[i], seq: first + uint64(i)}
	}
	m.appendMu.Unlock()
	m.accepted.Add(uint64(len(reports)))
	return nil
}

// queuedReport pairs an accepted report with its WAL sequence on the
// way to the compactor.
type queuedReport struct {
	r   Report
	seq uint64
}

// WAL exposes the manager's journal for replication: the source tails
// it (via its own TailReader), reads the head sequence, size and
// epoch, and waits on its change notification. The returned WAL must
// only be read — appends belong to Submit.
func (m *Manager) WAL() *WAL { return m.wal }

// Applied returns the WAL sequence of the last report the compactor
// has resolved into the master database.
func (m *Manager) Applied() uint64 { return m.applied.Load() }

// compact is the background loop: fold queued reports into the master
// database and, on the count or interval cadence, recompile and
// publish a fresh snapshot. All folder access happens here (plus
// NewManager before the goroutine starts), so the mutable state needs
// no locks.
func (m *Manager) compact() {
	defer close(m.done)
	ticker := time.NewTicker(m.cfg.FlushInterval)
	defer ticker.Stop()
	pending := 0
	for {
		select {
		case q := <-m.queue:
			<-m.slots
			m.apply(q.r, q.seq)
			if pending++; pending >= m.cfg.FlushReports {
				m.swap()
				pending = 0
			}
		case <-ticker.C:
			if pending > 0 {
				m.swap()
				pending = 0
			}
		case <-m.stop:
			// Drain what is already queued so a clean shutdown folds
			// everything it acknowledged; the WAL covers a crash.
			for {
				select {
				case q := <-m.queue:
					<-m.slots
					m.apply(q.r, q.seq)
					pending++
				default:
					if pending > 0 {
						m.swap()
					}
					return
				}
			}
		}
	}
}

// apply folds one report through the folder, counts the outcome and
// advances the applied sequence to seq.
func (m *Manager) apply(r Report, seq uint64) {
	if m.folder.Fold(r) {
		m.folded.Add(1)
	} else {
		m.dropped.Add(1)
	}
	m.applied.Store(seq)
}

// swap recompiles and publishes. A failed rebuild (e.g. a geometric
// fit that no longer converges) keeps the previous snapshot serving
// and is only counted — live training must never take the service
// down.
func (m *Manager) swap() {
	snap, patched, err := m.folder.Snapshot()
	if err != nil {
		m.swapErrors.Add(1)
		return
	}
	m.reg.Publish(snap)
	m.swaps.Add(1)
	if patched {
		m.patchedSwaps.Add(1)
	} else {
		m.fullSwaps.Add(1)
	}
	m.lastSwap.Store(snap.BuiltAt.UnixNano())
	m.finishPublish(snap)
}

// finishPublish runs the post-publish work on the compactor goroutine:
// watermark bookkeeping, the artifact write, and the replication hook.
// The watermark is the applied sequence at this instant — the
// compactor folds and publishes on one goroutine, so nothing has been
// applied since the snapshot was built.
func (m *Manager) finishPublish(snap *core.Snapshot) {
	watermark := m.applied.Load()
	m.watermark.Store(watermark)
	c := snap.Service.View()
	if m.cfg.ArtifactPath != "" {
		// After Publish, so serving never waits on the disk.
		am := ArtifactManifest{Generation: snap.Generation, Watermark: watermark, Epoch: m.wal.Epoch(), BuiltAt: snap.BuiltAt}
		if err := m.writeArtifact(c, am); err != nil {
			m.artifactErrors.Add(1)
		} else {
			m.artifacts.Add(1)
		}
	}
	if m.cfg.OnPublish != nil {
		m.cfg.OnPublish(PublishEvent{
			Snapshot:   snap,
			DB:         m.folder.Freeze(),
			Compiled:   c,
			Watermark:  watermark,
			Epoch:      m.wal.Epoch(),
			SnapRadius: m.cfg.SnapRadius,
		})
	}
}

// ArtifactManifest is the "<ArtifactPath>.manifest" sidecar written
// next to every artifact: the trainer state the artifact captures, so
// an operator (or tdbtool inspect) can correlate a follower's snapshot
// with the trainer's WAL position without decoding the artifact.
type ArtifactManifest struct {
	// Generation is the radio-map generation of the artifact.
	Generation uint64 `json:"generation"`
	// Watermark is the WAL sequence folded into the artifact.
	Watermark uint64 `json:"wal_watermark"`
	// Epoch is the WAL lifetime the watermark counts within.
	Epoch uint64 `json:"wal_epoch"`
	// BuiltAt is when the snapshot was published.
	BuiltAt time.Time `json:"built_at"`
}

// ReadArtifactManifest loads the sidecar for the artifact at path
// (i.e. "<path>.manifest").
func ReadArtifactManifest(path string) (*ArtifactManifest, error) {
	raw, err := os.ReadFile(path + ".manifest")
	if err != nil {
		return nil, err
	}
	var am ArtifactManifest
	if err := json.Unmarshal(raw, &am); err != nil {
		return nil, fmt.Errorf("ingest: parse artifact manifest: %w", err)
	}
	return &am, nil
}

// writeArtifact writes the snapshot's compiled radio map as a v2
// binary artifact, then its manifest sidecar, each atomically.
func (m *Manager) writeArtifact(c *trainingdb.Compiled, am ArtifactManifest) error {
	if c == nil {
		return errors.New("ingest: snapshot service keeps no compiled view")
	}
	if err := trainingdb.WriteCompiledFile(m.cfg.ArtifactPath, c); err != nil {
		return err
	}
	raw, err := json.Marshal(am)
	if err != nil {
		return err
	}
	return trainingdb.WriteFileAtomic(m.cfg.ArtifactPath+".manifest", append(raw, '\n'))
}

// Stats returns the current telemetry counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		Accepted:       m.accepted.Load(),
		RejectedFull:   m.rejectedFull.Load(),
		Folded:         m.folded.Load(),
		Dropped:        m.dropped.Load(),
		Queued:         len(m.queue),
		Swaps:          m.swaps.Load(),
		PatchedSwaps:   m.patchedSwaps.Load(),
		FullSwaps:      m.fullSwaps.Load(),
		SwapErrors:     m.swapErrors.Load(),
		Artifacts:      m.artifacts.Load(),
		ArtifactErrors: m.artifactErrors.Load(),
		Replayed:       m.replayed,
		ReplayDropped:  m.replayDropped,
		Applied:        m.applied.Load(),
		Watermark:      m.watermark.Load(),
	}
	if ns := m.lastSwap.Load(); ns != 0 {
		s.LastSwap = time.Unix(0, ns)
	}
	return s
}

// Close stops the compactor (folding and publishing anything already
// queued) and closes the WAL. The registry keeps serving its last
// snapshot.
func (m *Manager) Close() error {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
	return m.wal.Close()
}
