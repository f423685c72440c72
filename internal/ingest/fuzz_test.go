package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walBytes frames payloads into a syntactically valid WAL image, for
// seeding the fuzzer with realistic inputs.
func walBytes(payloads ...string) []byte {
	b := []byte(walMagic)
	for _, p := range payloads {
		var frame [8]byte
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE([]byte(p)))
		b = append(b, frame[:]...)
		b = append(b, p...)
	}
	return b
}

// FuzzWALReplay feeds arbitrary bytes to the WAL recovery path. The
// invariants: OpenWAL never panics on any file content; replay keeps
// exactly the records a TailReader over the same bytes yields before
// its first io.EOF or ErrTailCorrupt, up to the first CRC-valid record
// whose JSON fails to decode; and whenever OpenWAL succeeds the file
// has been repaired — a second open replays the same records with
// nothing further to drop, and an append survives a close/reopen
// cycle.
func FuzzWALReplay(f *testing.F) {
	rep := `{"name":"kitchen","observation":{"00:02:2d:0a:0b:0c":-61}}`
	f.Add([]byte{})
	f.Add([]byte(walMagic))
	f.Add([]byte("ILOCWAL9 wrong magic"))
	f.Add(walBytes(rep))
	f.Add(walBytes(rep, rep)[:len(walBytes(rep, rep))-3]) // torn tail
	f.Add(append(walBytes(rep), 0x01, 0x02))              // torn header
	f.Add(walBytes("{not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tailed := tailAll(t, path)
		w, reports, _, err := openWALCollect(path, false)
		if err != nil {
			return
		}
		if len(reports) > len(tailed) {
			t.Fatalf("replay kept %d records, the tail reader yields %d", len(reports), len(tailed))
		}
		for i, r := range reports {
			var want Report
			if err := json.Unmarshal(tailed[i], &want); err != nil || !reflect.DeepEqual(r, want) {
				t.Fatalf("record %d: replay kept %#v, the tail reader yields %q", i+1, r, tailed[i])
			}
		}
		if k := len(reports); k < len(tailed) {
			var r Report
			if json.Unmarshal(tailed[k], &r) == nil {
				t.Fatalf("replay stopped at record %d, which the tail reader yields and decodes", k+1)
			}
		}
		n := len(reports)
		if w.Seq() != uint64(n) {
			t.Fatalf("Seq()=%d but %d reports replayed", w.Seq(), n)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
		// The first open truncated any damage, so a reopen must be
		// clean: same records, nothing dropped.
		w2, reports2, dropped2, err := openWALCollect(path, false)
		if err != nil {
			t.Fatalf("reopen of repaired wal failed: %v", err)
		}
		if dropped2 != 0 {
			t.Fatalf("reopen dropped %d records from a repaired wal", dropped2)
		}
		if len(reports2) != n {
			t.Fatalf("reopen replayed %d records, first open had %d", len(reports2), n)
		}
		// Appending to the repaired log must survive a reopen.
		add := Report{Name: "fuzz", Observation: map[string]float64{"aa:bb": -50}}
		if _, err := w2.Append(add); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("close after append: %v", err)
		}
		w3, reports3, dropped3, err := openWALCollect(path, false)
		if err != nil {
			t.Fatalf("reopen after append failed: %v", err)
		}
		defer w3.Close()
		if dropped3 != 0 || len(reports3) != n+1 {
			t.Fatalf("after append: dropped=%d replayed=%d, want 0 and %d", dropped3, len(reports3), n+1)
		}
		got := reports3[len(reports3)-1]
		if got.Name != add.Name || len(got.Observation) != 1 || got.Observation["aa:bb"] != -50 {
			t.Fatalf("appended report corrupted across reopen: %#v", got)
		}
	})
}

// tailAll reads the WAL at path with a TailReader until its first
// io.EOF or ErrTailCorrupt, returning copies of the payloads; none when
// the file is no WAL the tail reader can open.
func tailAll(t *testing.T, path string) [][]byte {
	t.Helper()
	tr, err := OpenTail(path, 0)
	if err != nil {
		return nil
	}
	defer tr.Close()
	var out [][]byte
	for {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) || errors.Is(err, ErrTailCorrupt) {
			return out
		}
		if err != nil {
			t.Fatalf("tail record %d: %v", len(out)+1, err)
		}
		out = append(out, bytes.Clone(rec.Payload))
	}
}
