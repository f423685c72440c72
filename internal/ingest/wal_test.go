package ingest

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// openWALCollect opens the WAL at path and collects the reports its
// replay hands over, for tests that inspect the whole replayed log.
func openWALCollect(path string, syncEach bool) (*WAL, []Report, int, error) {
	var reports []Report
	w, dropped, err := OpenWAL(path, syncEach, func(r Report) { reports = append(reports, r) })
	if err != nil {
		return nil, nil, 0, err
	}
	return w, reports, dropped, nil
}

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "reports.wal")
}

func sampleReports() []Report {
	return []Report{
		{Name: "kitchen", Observation: map[string]float64{"aa:bb": -61.5, "cc:dd": -70}},
		{Pos: &ReportPos{X: 12.5, Y: 40}, Observation: map[string]float64{"aa:bb": -55}},
		{Name: "hall", Pos: &ReportPos{X: 1, Y: 2}, Observation: map[string]float64{"ee:ff": -80.25}},
	}
}

// TestWALReplayRoundTrip appends across two open/close cycles and
// checks every record comes back intact and in order.
func TestWALReplayRoundTrip(t *testing.T) {
	path := walPath(t)
	reports := sampleReports()
	w, got, dropped, err := openWALCollect(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || dropped != 0 {
		t.Fatalf("fresh WAL replayed %d records, dropped %d", len(got), dropped)
	}
	if _, err := w.Append(reports[0], reports[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(reports[2]); err != nil {
		t.Fatal(err)
	}
	if w.Seq() != 3 {
		t.Errorf("Seq() = %d want 3", w.Seq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, dropped, err := openWALCollect(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if dropped != 0 {
		t.Errorf("clean log dropped %d records", dropped)
	}
	if !reflect.DeepEqual(got, reports) {
		t.Errorf("replay mismatch:\n got %+v\nwant %+v", got, reports)
	}
	// The reopened WAL keeps appending where it left off.
	extra := Report{Name: "porch", Observation: map[string]float64{"aa:bb": -90}}
	if _, err := w2.Append(extra); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, got, _, err = openWALCollect(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].Name != "porch" {
		t.Errorf("after reopen+append: %d records, last %+v", len(got), got[len(got)-1])
	}
}

// TestWALTruncatedTail simulates a crash mid-write: a partial final
// record must be ignored (not fatal) and the intact prefix preserved.
func TestWALTruncatedTail(t *testing.T) {
	path := walPath(t)
	reports := sampleReports()
	w, _, _, err := openWALCollect(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(reports...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the end one at a time down past the last record's
	// header: every truncation must tolerate the torn tail and replay
	// the first two records.
	for cut := 1; cut <= 12; cut++ {
		if err := os.WriteFile(path, full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, dropped, err := openWALCollect(path, false)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if len(got) != 2 || dropped != 1 {
			t.Fatalf("cut %d: replayed %d dropped %d, want 2/1", cut, len(got), dropped)
		}
		if !reflect.DeepEqual(got, reports[:2]) {
			t.Fatalf("cut %d: prefix mismatch: %+v", cut, got)
		}
		// Open truncated the damage away; appending must produce a log
		// that replays cleanly.
		if _, err := w.Append(reports[2]); err != nil {
			t.Fatal(err)
		}
		w.Close()
		_, got, dropped, err = openWALCollect(path, false)
		if err != nil || len(got) != 3 || dropped != 0 {
			t.Fatalf("cut %d: after repair+append: %d records dropped %d err %v", cut, len(got), dropped, err)
		}
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALChecksumMismatch flips a payload byte and checks the record
// is rejected, not folded into the training data.
func TestWALChecksumMismatch(t *testing.T) {
	path := walPath(t)
	reports := sampleReports()
	w, _, _, err := openWALCollect(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(reports...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte inside the LAST record's payload. Records start
	// after the magic; walk the frames to find the final payload.
	off := len(walMagic)
	for i := 0; i < len(reports)-1; i++ {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:off+4]))
	}
	raw[off+8] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, got, dropped, err := openWALCollect(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 2 || dropped != 1 {
		t.Errorf("corrupt record: replayed %d dropped %d, want 2/1", len(got), dropped)
	}
	if !reflect.DeepEqual(got, reports[:2]) {
		t.Errorf("intact prefix mismatch: %+v", got)
	}
}

// TestWALForeignFile refuses to treat an arbitrary file as a journal
// (truncating it would destroy someone's data).
func TestWALForeignFile(t *testing.T) {
	path := walPath(t)
	if err := os.WriteFile(path, []byte("definitely not a WAL, but longer than the magic"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openWALCollect(path, false); err == nil {
		t.Fatal("foreign file accepted as WAL")
	}
	// And the file must be untouched.
	raw, _ := os.ReadFile(path)
	if string(raw) != "definitely not a WAL, but longer than the magic" {
		t.Error("foreign file was modified")
	}
}

// TestWALEmptyAndSubMagic treats zero-length and shorter-than-magic
// files as fresh logs.
func TestWALEmptyAndSubMagic(t *testing.T) {
	for _, content := range [][]byte{nil, []byte("ILO")} {
		path := walPath(t)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, dropped, err := openWALCollect(path, false)
		if err != nil {
			t.Fatalf("content %q: %v", content, err)
		}
		if len(got) != 0 || dropped != 0 {
			t.Errorf("content %q: replayed %d dropped %d", content, len(got), dropped)
		}
		if _, err := w.Append(sampleReports()[0]); err != nil {
			t.Fatal(err)
		}
		w.Close()
		_, got, _, err = openWALCollect(path, false)
		if err != nil || len(got) != 1 {
			t.Errorf("content %q: after append: %d records err %v", content, len(got), err)
		}
	}
}

// TestWALReplayStreams checks that replay holds no report history: by
// the last callback of a 20k-report replay the live heap has grown by
// far less than the ~11 MiB the decoded reports would take if replay
// kept them.
func TestWALReplayStreams(t *testing.T) {
	const n, aps = 20000, 12
	path := walPath(t)
	w, _, _, err := openWALCollect(path, false)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Report, 0, 1000)
	for i := 0; i < n; i++ {
		obs := make(map[string]float64, aps)
		for a := 0; a < aps; a++ {
			obs[fmt.Sprintf("02:00:00:00:%02x:%02x", a, i%7)] = -40 - float64((i+a)%60)
		}
		batch = append(batch, Report{Name: fmt.Sprintf("cell-%d", i%3000), Observation: obs})
		if len(batch) == cap(batch) {
			if _, err := w.Append(batch...); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	batch = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	seen := 0
	w, dropped, err := OpenWAL(path, false, func(r Report) {
		if seen++; seen == n {
			runtime.GC()
			runtime.ReadMemStats(&after)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if seen != n || dropped != 0 {
		t.Fatalf("replayed %d reports (dropped %d), want %d", seen, dropped, n)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4<<20 {
		t.Errorf("live heap grew %d KiB during replay, want under 4 MiB", grew>>10)
	}
}
