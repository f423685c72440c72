package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"indoorloc/internal/core"
	"indoorloc/internal/geom"
	"indoorloc/internal/trainingdb"
)

// testDB builds a small synthetic training database: a 3x3 grid of
// entries named g<i>, 20 ft apart, each hearing two APs.
func testDB() *trainingdb.DB {
	db := &trainingdb.DB{Entries: make(map[string]*trainingdb.Entry)}
	for i := 0; i < 9; i++ {
		name := fmt.Sprintf("g%d", i)
		pos := geom.Point{X: float64(i%3) * 20, Y: float64(i/3) * 20}
		e := &trainingdb.Entry{Name: name, Pos: pos, PerAP: make(map[string]*trainingdb.APStats)}
		for ap := 0; ap < 2; ap++ {
			s := &trainingdb.APStats{BSSID: fmt.Sprintf("ap%d", ap)}
			for k := 0; k < 5; k++ {
				s.AddSample(-50 - float64(i) - 3*float64(ap) - float64(k%2))
			}
			e.PerAP[s.BSSID] = s
		}
		db.Entries[name] = e
	}
	db.BSSIDs = []string{"ap0", "ap1"}
	return db
}

// testRebuilder mirrors locserved's: probabilistic locator plus a name
// map regenerated from the entry set.
func testRebuilder(db *trainingdb.DB) (*core.Service, error) {
	in, err := core.New(core.WithDB(db), core.WithEntryNames())
	if err != nil {
		return nil, err
	}
	return in.Service, nil
}

func newTestManager(t *testing.T, path string, cfg Config) *Manager {
	t.Helper()
	cfg.WALPath = path
	m, err := NewManager(testDB(), testRebuilder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// newPublishingManager is newTestManager with an OnPublish hook: the
// returned channel yields every publish event, the initial build's
// first.
func newPublishingManager(t *testing.T, cfg Config) (*Manager, <-chan PublishEvent) {
	t.Helper()
	// Sized past any test's publish count, so the hook never blocks the
	// compactor.
	events := make(chan PublishEvent, 64)
	cfg.OnPublish = func(ev PublishEvent) { events <- ev }
	return newTestManager(t, filepath.Join(t.TempDir(), "w.wal"), cfg), events
}

// nextEvent returns the next publish event, failing after a deadline.
func nextEvent(t *testing.T, events <-chan PublishEvent) PublishEvent {
	t.Helper()
	select {
	case ev := <-events:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a publish event")
		return PublishEvent{}
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSubmitFoldsAndSwaps(t *testing.T) {
	m, events := newPublishingManager(t, Config{
		FlushReports: 2, FlushInterval: time.Hour, // count-triggered swaps only
	})
	gen0 := nextEvent(t, events).Snapshot.Generation
	err := m.Submit(
		Report{Name: "g0", Observation: map[string]float64{"ap0": -49}},
		Report{Name: "g0", Observation: map[string]float64{"ap0": -51, "apNEW": -77}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ev := nextEvent(t, events)
	if ev.Snapshot.Generation <= gen0 {
		t.Errorf("generation did not advance: %d -> %d", gen0, ev.Snapshot.Generation)
	}
	db := ev.DB
	if s := db.Entries["g0"].PerAP["ap0"]; s.N != 7 {
		t.Errorf("g0/ap0 N=%d want 7 (5 trained + 2 folded)", s.N)
	}
	if _, ok := db.Entries["g0"].PerAP["apNEW"]; !ok {
		t.Error("new AP not folded")
	}
	st := m.Stats()
	if st.Accepted != 2 || st.Folded != 2 || st.Dropped != 0 {
		t.Errorf("stats %+v", st)
	}
	if st.LastSwap.IsZero() {
		t.Error("LastSwap still zero after swap")
	}
}

func TestIntervalTriggeredSwap(t *testing.T) {
	m := newTestManager(t, filepath.Join(t.TempDir(), "w.wal"), Config{
		FlushReports: 1 << 30, FlushInterval: 10 * time.Millisecond,
	})
	if err := m.Submit(Report{Name: "g1", Observation: map[string]float64{"ap1": -60}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "interval-triggered swap", func() bool { return m.Stats().Swaps >= 1 })
}

func TestNewEntryAndSnapRadius(t *testing.T) {
	m, events := newPublishingManager(t, Config{
		FlushReports: 1, FlushInterval: time.Hour, SnapRadius: 5,
	})
	nextEvent(t, events)
	// Within 5 ft of g0 at (0,0): snaps to g0.
	if err := m.Submit(Report{Pos: &ReportPos{X: 3, Y: 0}, Observation: map[string]float64{"ap0": -48}}); err != nil {
		t.Fatal(err)
	}
	if s := nextEvent(t, events).DB.Entries["g0"].PerAP["ap0"]; s.N != 6 {
		t.Errorf("snap: g0/ap0 N=%d want 6", s.N)
	}
	// Far from everything: founds a coordinate-named entry.
	if err := m.Submit(Report{Pos: &ReportPos{X: 200, Y: 200}, Observation: map[string]float64{"ap0": -90}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nextEvent(t, events).DB.Entries["xy:200.0,200.0"]; !ok {
		t.Error("far report founded no coordinate entry")
	}
	// Named new location with a coordinate: founded under that name,
	// and resolvable through the snapshot's name map.
	if err := m.Submit(Report{Name: "annex", Pos: &ReportPos{X: -40, Y: -40}, Observation: map[string]float64{"ap1": -85}}); err != nil {
		t.Fatal(err)
	}
	ev := nextEvent(t, events)
	if _, ok := ev.DB.Entries["annex"]; !ok {
		t.Error("named report founded no entry")
	}
	if _, ok := ev.Snapshot.Service.Names.Lookup("annex"); !ok {
		t.Error("founded entry does not resolve through the snapshot's names")
	}
	// Unknown name without a coordinate: accepted (it is valid on its
	// face) but dropped at fold time.
	if err := m.Submit(Report{Name: "nowhere", Observation: map[string]float64{"ap0": -70}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "undecidable report dropped", func() bool { return m.Stats().Dropped == 1 })
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, filepath.Join(t.TempDir(), "w.wal"), Config{})
	cases := []Report{
		{},
		{Name: "g0"},
		{Observation: map[string]float64{"ap0": -50}},
		{Name: "g0", Observation: map[string]float64{"ap0": +10}},
		{Name: "g0", Observation: map[string]float64{"": -50}},
	}
	for i, r := range cases {
		if err := m.Submit(r); !errors.Is(err, ErrInvalidReport) {
			t.Errorf("case %d: err %v, want ErrInvalidReport", i, err)
		}
	}
	if err := m.Submit(); !errors.Is(err, ErrInvalidReport) {
		t.Error("empty submission accepted")
	}
	if st := m.Stats(); st.Accepted != 0 {
		t.Errorf("invalid reports counted as accepted: %+v", st)
	}
}

// TestBackpressure fills the bounded queue and checks Submit answers
// ErrQueueFull all-or-nothing, and ErrBatchTooLarge for a batch deeper
// than the queue, with nothing journaled for a rejected batch.
func TestBackpressure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	cfg := Config{WALPath: path, QueueDepth: 4, FlushReports: 1 << 30, FlushInterval: time.Hour}
	cfg.fillDefaults()
	m, err := NewManager(testDB(), testRebuilder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	r := Report{Name: "g0", Observation: map[string]float64{"ap0": -50}}
	if err := m.Submit(r); err != nil {
		t.Fatal(err)
	}
	// A batch deeper than the queue can never be admitted: it is
	// refused on its own error and not counted as backpressure.
	batch := make([]Report, 5)
	for i := range batch {
		batch[i] = r
	}
	if err := m.Submit(batch...); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("overdeep batch: err %v, want ErrBatchTooLarge", err)
	}
	if st := m.Stats(); st.RejectedFull != 0 {
		t.Errorf("overdeep batch counted as queue-full: %+v", st)
	}
	// Hold every admission slot (the compactor releases only slots of
	// reports it dequeues), so the queue is provably full.
	for range cap(m.slots) {
		m.slots <- struct{}{}
	}
	if err := m.Submit(batch[:2]...); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: err %v, want ErrQueueFull", err)
	}
	for range cap(m.slots) {
		<-m.slots
	}
	st := m.Stats()
	if st.RejectedFull != 2 {
		t.Errorf("%d rejections counted, want 2", st.RejectedFull)
	}
	// All-or-nothing: the WAL holds exactly the accepted reports.
	m.Close()
	_, replayed, _, err := openWALCollect(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != int(st.Accepted) || st.Accepted != 1 {
		t.Errorf("WAL holds %d records, accepted %d (want 1) — rejected reports leaked into the journal",
			len(replayed), st.Accepted)
	}
}

// TestRestartReplaysAcceptedReports is the kill-and-restart property:
// everything acknowledged before the "crash" is folded after reopen,
// even though the manager never swapped.
func TestRestartReplaysAcceptedReports(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	cfg := Config{WALPath: path, FlushReports: 1 << 30, FlushInterval: time.Hour}
	m, err := NewManager(testDB(), testRebuilder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := m.Submit(Report{Name: "g4", Observation: map[string]float64{"ap0": -60 - float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: close the WAL out from under the manager
	// without letting the compactor publish. (Close drains, which is
	// the graceful path; a real kill simply leaves the WAL as the only
	// record — which is exactly what the fresh manager below sees.)
	m.wal.Close()

	m2, err := NewManager(testDB(), testRebuilder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st := m2.Stats()
	if st.Replayed != 10 || st.Folded != 10 {
		t.Fatalf("after restart: replayed %d folded %d, want 10/10", st.Replayed, st.Folded)
	}
	// The initial snapshot already contains the replayed evidence: its
	// view is the compile of the seed database with the 10 reports
	// folded.
	want := testDB()
	for i := 0; i < 10; i++ {
		want.Fold("g4", geom.Point{}, map[string]float64{"ap0": -60 - float64(i)})
	}
	wantBytes, err := trainingdb.EncodeCompiled(want.Compile(core.FloorRSSI, core.FloorSigma))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := trainingdb.EncodeCompiled(m2.Registry().Current().Service.View()); err != nil || !bytes.Equal(got, wantBytes) {
		t.Errorf("initial view after replay differs from the seed plus 10 folds (%v)", err)
	}
	if m.Close() == nil {
		t.Log("first manager close tolerated closed WAL") // drain hits closed WAL only on append, fine
	}
}

// TestRestartReportsTruncatedTail checks that a torn final record,
// truncated away by the startup replay, shows up in the manager's
// stats rather than vanishing silently.
func TestRestartReportsTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	cfg := Config{WALPath: path, FlushReports: 1 << 30, FlushInterval: time.Hour}
	m, err := NewManager(testDB(), testRebuilder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Submit(Report{Name: "g4", Observation: map[string]float64{"ap0": -60 - float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a partial record header behind.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := newTestManager(t, path, cfg)
	if st := m2.Stats(); st.Replayed != 3 || st.ReplayDropped != 1 {
		t.Errorf("after restart: replayed %d, replay dropped %d; want 3 and 1", st.Replayed, st.ReplayDropped)
	}
}

// TestSnapshotIsolation verifies the published snapshot never changes
// under continued folding, though with no OnPublish the master folds
// in place: a service keeps only its compiled view.
func TestSnapshotIsolation(t *testing.T) {
	m := newTestManager(t, filepath.Join(t.TempDir(), "w.wal"), Config{
		FlushReports: 1, FlushInterval: time.Hour,
	})
	if err := m.Submit(Report{Name: "g0", Observation: map[string]float64{"ap0": -40}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first swap", func() bool { return m.Stats().Swaps >= 1 })
	snap := m.Registry().Current()
	encode := func(s *core.Snapshot) []byte {
		t.Helper()
		raw, err := trainingdb.EncodeCompiled(s.Service.View())
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	before := encode(snap)
	for i := 0; i < 5; i++ {
		if err := m.Submit(Report{Name: "g0", Observation: map[string]float64{"ap0": -41}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "later swaps", func() bool { return m.Stats().Swaps >= 6 })
	if !bytes.Equal(encode(snap), before) {
		t.Error("published snapshot's view mutated by later folds")
	}
	// The current snapshot did move on.
	if cur := m.Registry().Current(); cur.Generation != snap.Generation+5 || bytes.Equal(encode(cur), before) {
		t.Errorf("current snapshot generation %d, want %d, and a changed view", cur.Generation, snap.Generation+5)
	}
}

// TestFolderFreezesOnlyKeptState checks that copy-on-write is paid
// only for a state a caller keeps: a folder folds in place until
// Freeze is called, and the state Freeze returns is never mutated by
// later folds, while the snapshots go on patching.
func TestFolderFreezesOnlyKeptState(t *testing.T) {
	report := Report{Name: "g0", Observation: map[string]float64{"ap0": -40}}
	n0 := func(db *trainingdb.DB) int { return db.Entries["g0"].PerAP["ap0"].N }
	snapshot := func(f *Folder, wantPatched bool) *core.Snapshot {
		t.Helper()
		snap, patched, err := f.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if patched != wantPatched {
			t.Fatalf("patched = %v, want %v", patched, wantPatched)
		}
		return snap
	}

	f := NewFolder(testDB(), 0, testRebuilder, nil)
	snapshot(f, false)
	e := f.db.Entries["g0"]
	f.Fold(report)
	if f.db.Entries["g0"] != e {
		t.Error("folder cloned an entry no frozen state shares")
	}
	snap := snapshot(f, true)
	kept := f.Freeze()
	if f.Freeze() != kept || kept.Generation() != snap.Generation {
		t.Fatal("Freeze is not the latest snapshot's state")
	}
	n := n0(kept)
	f.Fold(report)
	f.Fold(report)
	if n0(kept) != n {
		t.Errorf("frozen state mutated by a later fold: N %d -> %d", n, n0(kept))
	}
	snap = snapshot(f, true)
	if next := f.Freeze(); next == kept || n0(next) != n+2 || next.Generation() != snap.Generation {
		t.Errorf("next Freeze: N %d (want %d), generation %d (want %d)", n0(next), n+2, next.Generation(), snap.Generation)
	}
}

// TestPublishPatchesFoldedEntries checks the patched publish path end
// to end: fold-only publishes patch the previous view, structural ones
// (a new AP, a new entry) rebuild in full, and every published view
// encodes to the bytes a fresh compile of its frozen database gives.
// A service built outside New records no recipe and keeps no view, so
// it is always rebuilt in full.
func TestPublishPatchesFoldedEntries(t *testing.T) {
	opaque := func(db *trainingdb.DB) (*core.Service, error) {
		svc, err := testRebuilder(db)
		if err != nil {
			return nil, err
		}
		return &core.Service{Locator: svc.Locator, Names: svc.Names}, nil
	}
	// A service built over a copy of the master keeps nothing of either,
	// so it patches like one built over the master itself.
	copied := func(db *trainingdb.DB) (*core.Service, error) { return testRebuilder(db.Snapshot()) }
	reports := []Report{
		{Name: "g0", Observation: map[string]float64{"ap0": -49}},                                   // patch
		{Name: "g4", Observation: map[string]float64{"ap0": -61, "ap1": -58}},                       // patch
		{Name: "g4", Observation: map[string]float64{"apNEW": -77}},                                 // new AP: full
		{Name: "annex", Pos: &ReportPos{X: 90, Y: 90}, Observation: map[string]float64{"ap1": -80}}, // new entry: full
		{Name: "g0", Observation: map[string]float64{"ap0": -52, "ap1": -60}},                       // patch
	}
	for _, tc := range []struct {
		name          string
		rebuild       Rebuilder
		patched, full uint64
		noView        bool
	}{
		{"recipe", testRebuilder, 3, 2, false},
		{"no-recipe", opaque, 0, 5, true},
		{"other-db", copied, 3, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				events []PublishEvent
				g0N    []int // g0/ap0's sample count in each frozen database, at publish
			)
			m, err := NewManager(testDB(), tc.rebuild, Config{
				WALPath: filepath.Join(t.TempDir(), "w.wal"), FlushReports: 1, FlushInterval: time.Hour,
				OnPublish: func(ev PublishEvent) {
					events = append(events, ev)
					g0N = append(g0N, ev.DB.Entries["g0"].PerAP["ap0"].N)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range reports {
				if err := m.Submit(r); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "swap", func() bool { return m.Stats().Swaps == uint64(i+1) })
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.PatchedSwaps != tc.patched || st.FullSwaps != tc.full {
				t.Errorf("patched/full swaps %d/%d, want %d/%d", st.PatchedSwaps, st.FullSwaps, tc.patched, tc.full)
			}
			if len(events) != len(reports)+1 {
				t.Fatalf("%d publish events, want %d", len(events), len(reports)+1)
			}
			for i, ev := range events {
				if n := ev.DB.Entries["g0"].PerAP["ap0"].N; n != g0N[i] {
					t.Errorf("publish %d: frozen g0/ap0 mutated after publish: N %d -> %d", i, g0N[i], n)
				}
				if tc.noView {
					if ev.Compiled != nil {
						t.Errorf("publish %d: a service with no view published one", i)
					}
					continue
				}
				got, err := trainingdb.EncodeCompiled(ev.Compiled)
				if err != nil {
					t.Fatal(err)
				}
				want, err := trainingdb.EncodeCompiled(ev.DB.Compile(-95, 4))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("publish %d: view differs from a fresh compile of its frozen database", i)
				}
			}
		})
	}
}

// TestGeometricPublishPatchesAndWritesArtifact checks a live
// geometric-ls service, which scores without its view but keeps one:
// its fold-only publishes patch, and every publish writes that view as
// the artifact.
func TestGeometricPublishPatchesAndWritesArtifact(t *testing.T) {
	aps := map[string]geom.Point{"ap0": geom.Pt(0, 0), "ap1": geom.Pt(60, 0), "ap2": geom.Pt(0, 60), "ap3": geom.Pt(60, 60)}
	db := &trainingdb.DB{Entries: make(map[string]*trainingdb.Entry), BSSIDs: []string{"ap0", "ap1", "ap2", "ap3"}}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("g%d", i)
		pos := geom.Pt(float64(i%4)*20, float64(i/4)*20)
		e := &trainingdb.Entry{Name: name, Pos: pos, PerAP: make(map[string]*trainingdb.APStats)}
		for _, bssid := range db.BSSIDs {
			s := &trainingdb.APStats{BSSID: bssid}
			d := max(pos.Dist(aps[bssid]), 1)
			for k := 0; k < 5; k++ {
				s.AddSample(math.Round(-40-20*math.Log10(d)) - float64(k%2))
			}
			e.PerAP[bssid] = s
		}
		db.Entries[name] = e
	}
	rebuild := func(db *trainingdb.DB) (*core.Service, error) {
		in, err := core.New(core.WithDB(db), core.WithAlgorithm(core.AlgoGeometricLS),
			core.WithConfig(core.BuildConfig{APPositions: aps}), core.WithEntryNames())
		if err != nil {
			return nil, err
		}
		return in.Service, nil
	}
	art := filepath.Join(t.TempDir(), "map.ilr")
	m, err := NewManager(db, rebuild, Config{
		WALPath: filepath.Join(t.TempDir(), "w.wal"), ArtifactPath: art, FlushReports: 1, FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		if err := m.Submit(Report{Name: "g5", Observation: map[string]float64{"ap0": -62 - float64(i), "ap2": -66}}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "artifact write", func() bool {
			st := m.Stats()
			return st.Artifacts+st.ArtifactErrors == uint64(i+2)
		})
	}
	if st := m.Stats(); st.PatchedSwaps != 3 || st.FullSwaps != 0 || st.Artifacts != 4 || st.ArtifactErrors != 0 {
		t.Errorf("patched/full swaps %d/%d, artifacts/errors %d/%d; want 3/0, 4/0",
			st.PatchedSwaps, st.FullSwaps, st.Artifacts, st.ArtifactErrors)
	}
	got, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trainingdb.EncodeCompiled(m.Registry().Current().Service.View())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("artifact differs from the serving view")
	}
}

// TestArtifactSidecarWriteFailure makes the manifest sidecar unwritable
// (a directory holds its name) and checks the publish counts an
// artifact error, not a success, and leaves no partial file behind.
func TestArtifactSidecarWriteFailure(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "map.ilr")
	if err := os.Mkdir(art+".manifest", 0o755); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, filepath.Join(t.TempDir(), "w.wal"), Config{ArtifactPath: art})
	if st := m.Stats(); st.ArtifactErrors != 1 || st.Artifacts != 0 {
		t.Errorf("artifacts/errors %d/%d after a failed sidecar write, want 0/1", st.Artifacts, st.ArtifactErrors)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "map.ilr" || names[1] != "map.ilr.manifest" {
		t.Errorf("artifact directory holds %v, want only the artifact and the blocking directory", names)
	}
}

// TestArtifactSidecarWritten checks a publish writes both files and the
// sidecar parses back to the published generation and watermark.
func TestArtifactSidecarWritten(t *testing.T) {
	art := filepath.Join(t.TempDir(), "map.ilr")
	m := newTestManager(t, filepath.Join(t.TempDir(), "w.wal"), Config{ArtifactPath: art, FlushReports: 1})
	if err := m.Submit(Report{Name: "g0", Observation: map[string]float64{"ap0": -52}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "swap", func() bool { return m.Stats().Artifacts == 2 })
	am, err := ReadArtifactManifest(art)
	if err != nil {
		t.Fatal(err)
	}
	if snap := m.Registry().Current(); am.Generation != snap.Generation || am.Watermark != 1 || am.Epoch != m.WAL().Epoch() {
		t.Errorf("sidecar %+v, want generation %d watermark 1 epoch %x", am, snap.Generation, m.WAL().Epoch())
	}
}
