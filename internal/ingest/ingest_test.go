package ingest

import (
	"bytes"
	"errors"
	"fmt"
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
	m := newTestManager(t, filepath.Join(t.TempDir(), "w.wal"), Config{
		FlushReports: 2, FlushInterval: time.Hour, // count-triggered swaps only
	})
	gen0 := m.Registry().Current().Generation
	err := m.Submit(
		Report{Name: "g0", Observation: map[string]float64{"ap0": -49}},
		Report{Name: "g0", Observation: map[string]float64{"ap0": -51, "apNEW": -77}},
	)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "count-triggered swap", func() bool { return m.Stats().Swaps >= 1 })
	snap := m.Registry().Current()
	if snap.Generation <= gen0 {
		t.Errorf("generation did not advance: %d -> %d", gen0, snap.Generation)
	}
	db := snap.Service.DB
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
	m := newTestManager(t, filepath.Join(t.TempDir(), "w.wal"), Config{
		FlushReports: 1, FlushInterval: time.Hour, SnapRadius: 5,
	})
	// Within 5 ft of g0 at (0,0): snaps to g0.
	if err := m.Submit(Report{Pos: &ReportPos{X: 3, Y: 0}, Observation: map[string]float64{"ap0": -48}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "snap fold", func() bool { return m.Stats().Swaps >= 1 })
	db := m.Registry().Current().Service.DB
	if s := db.Entries["g0"].PerAP["ap0"]; s.N != 6 {
		t.Errorf("snap: g0/ap0 N=%d want 6", s.N)
	}
	// Far from everything: founds a coordinate-named entry.
	if err := m.Submit(Report{Pos: &ReportPos{X: 200, Y: 200}, Observation: map[string]float64{"ap0": -90}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "new coordinate entry", func() bool {
		_, ok := m.Registry().Current().Service.DB.Entries["xy:200.0,200.0"]
		return ok
	})
	// Named new location with a coordinate: founded under that name,
	// and resolvable through the snapshot's name map.
	if err := m.Submit(Report{Name: "annex", Pos: &ReportPos{X: -40, Y: -40}, Observation: map[string]float64{"ap1": -85}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "named new entry", func() bool {
		snap := m.Registry().Current()
		if _, ok := snap.Service.DB.Entries["annex"]; !ok {
			return false
		}
		_, ok := snap.Service.Names.Lookup("annex")
		return ok
	})
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
// ErrQueueFull all-or-nothing, with nothing journaled for the
// rejected batch.
func TestBackpressure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	cfg := Config{WALPath: path, QueueDepth: 4, FlushReports: 1 << 30, FlushInterval: time.Hour}
	cfg.fillDefaults()
	m, err := NewManager(testDB(), testRebuilder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Stall the compactor by feeding it nothing — it only wakes for
	// queue/ticker — and fill the admission slots synchronously.
	r := Report{Name: "g0", Observation: map[string]float64{"ap0": -50}}
	accepted := 0
	for i := 0; i < 64 && accepted < 4; i++ {
		if err := m.Submit(r); err == nil {
			accepted++
		} else if !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
	}
	// The compactor drains concurrently, so we may land short of a
	// provably full queue only if folding outpaces submission; batch
	// submission of more than the depth is deterministically too big.
	batch := make([]Report, 5)
	for i := range batch {
		batch[i] = r
	}
	if err := m.Submit(batch...); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overdeep batch: err %v, want ErrQueueFull", err)
	}
	st := m.Stats()
	if st.RejectedFull == 0 {
		t.Error("no rejections counted")
	}
	// All-or-nothing: the WAL holds exactly the accepted reports.
	m.Close()
	_, replayed, _, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != int(st.Accepted) {
		t.Errorf("WAL holds %d records, accepted %d — rejected reports leaked into the journal",
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
	// The initial snapshot already contains the replayed evidence.
	db := m2.Registry().Current().Service.DB
	if s := db.Entries["g4"].PerAP["ap0"]; s.N != 15 {
		t.Errorf("g4/ap0 N=%d want 15 (5 trained + 10 replayed)", s.N)
	}
	if m.Close() == nil {
		t.Log("first manager close tolerated closed WAL") // drain hits closed WAL only on append, fine
	}
}

// TestSnapshotIsolation verifies the published snapshot never changes
// under continued folding — the copy-on-write contract seen from the
// outside.
func TestSnapshotIsolation(t *testing.T) {
	m := newTestManager(t, filepath.Join(t.TempDir(), "w.wal"), Config{
		FlushReports: 1, FlushInterval: time.Hour,
	})
	if err := m.Submit(Report{Name: "g0", Observation: map[string]float64{"ap0": -40}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first swap", func() bool { return m.Stats().Swaps >= 1 })
	snap := m.Registry().Current()
	before := *snap.Service.DB.Entries["g0"].PerAP["ap0"]
	for i := 0; i < 5; i++ {
		if err := m.Submit(Report{Name: "g0", Observation: map[string]float64{"ap0": -41}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "later swaps", func() bool { return m.Stats().Swaps >= 6 })
	after := snap.Service.DB.Entries["g0"].PerAP["ap0"]
	if after.N != before.N || after.Mean != before.Mean {
		t.Errorf("published snapshot mutated: %+v -> %+v", before, *after)
	}
	// The current snapshot did move on.
	if cur := m.Registry().Current().Service.DB.Entries["g0"].PerAP["ap0"]; cur.N != before.N+5 {
		t.Errorf("current snapshot N=%d want %d", cur.N, before.N+5)
	}
}

// TestFolderFreezesOnlyKeptState checks that copy-on-write is paid
// only for a state something keeps: a folder whose services keep no
// database (a follower's) folds in place, while a kept state — the
// service's DB, or Freeze's — is never mutated by later folds.
func TestFolderFreezesOnlyKeptState(t *testing.T) {
	viewOnly := func(db *trainingdb.DB) (*core.Service, error) {
		in, err := core.New(core.WithCompiled(db.Compile(core.FloorRSSI, core.FloorSigma)), core.WithEntryNames())
		if err != nil {
			return nil, err
		}
		return in.Service, nil
	}
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

	f := NewFolder(testDB(), 0, viewOnly, nil)
	snapshot(f, false)
	e := f.db.Entries["g0"]
	f.Fold(report)
	if f.db.Entries["g0"] != e {
		t.Error("folder cloned an entry no kept state shares")
	}
	snap := snapshot(f, true)
	if snap.Service.DB != nil {
		t.Fatal("view-only service keeps a database")
	}
	kept := f.Freeze()
	if f.Freeze() != kept || kept.Generation() != snap.Generation {
		t.Fatal("Freeze is not the latest snapshot's state")
	}
	n := n0(kept)
	f.Fold(report)
	if n0(kept) != n {
		t.Errorf("frozen state mutated by a later fold: N %d -> %d", n, n0(kept))
	}

	g := NewFolder(testDB(), 0, testRebuilder, nil)
	kept = snapshot(g, false).Service.DB
	n = n0(kept)
	g.Fold(report)
	g.Fold(report)
	snap = snapshot(g, true)
	if n0(kept) != n || n0(snap.Service.DB) != n+2 {
		t.Errorf("g0/ap0 N: kept %d (want %d), next snapshot %d (want %d)", n0(kept), n, n0(snap.Service.DB), n+2)
	}
	if g.Freeze() != snap.Service.DB {
		t.Error("Freeze did not return the state the service keeps")
	}
}

// TestPublishPatchesFoldedEntries checks the patched publish path end
// to end: fold-only publishes patch the previous view, structural ones
// (a new AP, a new entry) rebuild in full, and every published view
// encodes to the bytes a fresh compile of its frozen database gives.
// A service with no recorded recipe is always rebuilt in full.
func TestPublishPatchesFoldedEntries(t *testing.T) {
	opaque := func(db *trainingdb.DB) (*core.Service, error) {
		svc, err := testRebuilder(db)
		if err != nil {
			return nil, err
		}
		return &core.Service{DB: svc.DB, Locator: svc.Locator, Names: svc.Names}, nil
	}
	// A service over a copy of the frozen database is never a patch
	// base, and the entries it shares must still be cloned before folds.
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
	}{
		{"recipe", testRebuilder, 3, 2},
		{"no-recipe", opaque, 0, 5},
		{"other-db", copied, 0, 5},
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
				if n := ev.DB.Entries["g0"].PerAP["ap0"].N; n != g0N[i] {
					t.Errorf("publish %d: frozen g0/ap0 mutated after publish: N %d -> %d", i, g0N[i], n)
				}
			}
		})
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
