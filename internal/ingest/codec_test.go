package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"indoorloc/internal/jsonscan"
)

// pinnedReports is a fixed report set covering every branch of the
// encoder: omitted and present names and positions, a nil and an
// empty observation, strings that need escaping (HTML characters,
// control bytes, invalid UTF-8, U+2028, non-ASCII), the float format's
// 'e' cutoffs at both ends and signed zero, and a seeded stream of
// floor-sized reports with rounded and full-precision readings.
func pinnedReports() []Report {
	reports := []Report{
		{Name: "kitchen", Observation: map[string]float64{"00:02:2d:0a:0b:0c": -61, "00:02:2d:0a:0b:0d": -70.5}},
		{Pos: &ReportPos{X: 12.5, Y: -3}, Observation: map[string]float64{"aa": -0.000001, "bb": -1e-7, "cc": -99.99999999999999}},
		{Name: `room <D22> & "lab"`, Pos: &ReportPos{X: 1e21, Y: 5e-324}, Observation: map[string]float64{"é-ap": -50, "ctl\x01": -1.5e-10}},
		{Name: "bad\xffutf8\u2028\\", Observation: nil},
		{Name: "empty", Observation: map[string]float64{}},
		{Pos: &ReportPos{X: 0, Y: math.Copysign(0, -1)}, Observation: map[string]float64{"z": -120, "a": 0, "m": -0.1, "\x7f": -2}},
		{Name: "big", Pos: &ReportPos{X: math.MaxFloat64, Y: -math.SmallestNonzeroFloat64}, Observation: map[string]float64{"k": -123456789.125, "l": 9.999999999999999e20}},
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 64; i++ {
		r := Report{Name: fmt.Sprintf("grid-%d-%d", i%8, i/8), Observation: map[string]float64{}}
		if i%3 == 0 {
			r.Pos = &ReportPos{X: rng.Float64() * 300, Y: math.Round(rng.Float64()*2000) / 10}
		}
		for ap := 0; ap < 12; ap++ {
			v := -20 - 79*rng.Float64()
			if ap%2 == 0 {
				v = math.Round(v*10) / 10
			}
			r.Observation[fmt.Sprintf("02:00:00:00:%02x:%02x", i%5, ap)] = v
		}
		reports = append(reports, r)
	}
	return reports
}

// TestWALRecordBytesPinned pins the WAL's bytes: the records of a
// fixed report set hash to the value the encoding/json encoder wrote,
// so the reflection-free encoder leaves every log, and the stream to
// followers, bit-for-bit as it was.
func TestWALRecordBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pinned.wal")
	w, _, _, err := openWALCollect(path, false)
	if err != nil {
		t.Fatal(err)
	}
	reports := pinnedReports()
	if _, err := w.Append(reports[:7]...); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(reports[7:]...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw[len(walMagic):])
	const want = "dd7f78b88032ff0fb5449d6bbdfaceda20393e736aeb4e31eb0fdb1695326e34"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("WAL records hash %s, want %s", got, want)
	}
}

// TestAppendReportMatchesMarshal holds the encoder to json.Marshal on
// the pinned set, report by report.
func TestAppendReportMatchesMarshal(t *testing.T) {
	for i, r := range pinnedReports() {
		sameEncoding(t, fmt.Sprint(i), &r)
	}
}

// sameEncoding checks AppendReport against json.Marshal on r: the same
// bytes, or both failing. It also appends behind existing bytes, which
// must be left alone.
func sameEncoding(t *testing.T, name string, r *Report) {
	t.Helper()
	want, werr := json.Marshal(r)
	got, gerr := AppendReport([]byte("prefix"), r)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Errorf("%s: json.Marshal err %v, AppendReport err %v", name, werr, gerr)
	case werr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)):
		t.Errorf("%s: AppendReport wrote\n%q\njson.Marshal\n%q", name, got, want)
	}
}

// TestAppendReportAllocs pins the WAL encoder to zero allocations into
// a buffer with room, for a floor-sized report of plain BSSIDs.
func TestAppendReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations make the count nondeterministic")
	}
	r := pinnedReports()[7]
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = AppendReport(buf[:0], &r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendReport allocates %.1f per report, want 0", allocs)
	}
}

// TestScanReportCommaFloodBounded checks that an observation of bare
// commas, which the scanner refuses, does not make it size a map for
// every comma first: the hint is bounded, so the refusal allocates a
// few kilobytes however long the flood.
func TestScanReportCommaFloodBounded(t *testing.T) {
	b := []byte(`{"observation":{"a":-1` + strings.Repeat(",", 1<<20) + `}}`)
	var keys jsonscan.Keys
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, ok := ScanReport(b, 0, &keys, &jsonscan.Keys{})
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("ScanReport accepted a comma flood")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("refusing a %d-byte comma flood allocated %d bytes, want at most 64 KiB", len(b), n)
	}
}

// TestDecodeReportShapes pins which payloads the scanner answers by
// itself and checks each answer, scanned or not, against
// json.Unmarshal.
func TestDecodeReportShapes(t *testing.T) {
	cases := []struct {
		name, payload string
		wantFast      bool
	}{
		{"canonical", `{"name":"kitchen","pos":{"x":1.5,"y":-2e3},"observation":{"aa:bb":-61.5,"cc:dd":-70}}`, true},
		{"any order", ` {"observation":{"a":-1} , "pos":{"y":2,"x":1},"name":"n"}` + "\n", true},
		{"pos only x", `{"pos":{"x":3},"observation":{"a":-1}}`, true},
		{"empty pos", `{"pos":{},"observation":{"a":-1}}`, true},
		{"empty observation", `{"name":"n","observation":{}}`, true},
		{"empty object", `{}`, true},
		{"repeated BSSID", `{"name":"n","observation":{"a":-1,"a":-2}}`, true},
		{"null observation", `{"name":"n","observation":null}`, false},
		{"null pos", `{"name":"n","pos":null,"observation":{"a":-1}}`, false},
		{"repeated member", `{"name":"a","name":"b","observation":{"a":-1}}`, false},
		{"repeated pos member", `{"pos":{"x":1,"x":2},"observation":{"a":-1}}`, false},
		{"field case", `{"Name":"n","observation":{"a":-1}}`, false},
		{"unknown member", `{"name":"n","observation":{"a":-1},"extra":1}`, false},
		{"unknown pos member", `{"pos":{"x":1,"z":2},"observation":{"a":-1}}`, false},
		{"escaped name", `{"name":"k\u00e4che","observation":{"a":-1}}`, false},
		{"non-ASCII name", `{"name":"käche","observation":{"a":-1}}`, false},
		{"non-ASCII BSSID", `{"name":"n","observation":{"é":-1}}`, false},
		{"string RSSI", `{"name":"n","observation":{"a":"-1"}}`, false},
		{"out of range", `{"name":"n","observation":{"a":-1e400}}`, false},
		{"trailing data", `{"name":"n","observation":{"a":-1}} {}`, false},
		{"trailing comma", `{"name":"n","observation":{"a":-1},}`, false},
		{"truncated", `{"name":"n","observation":{"a":-1}`, false},
		{"not an object", `["n"]`, false},
	}
	for _, c := range cases {
		b := []byte(c.payload)
		if _, i, ok := ScanReport(b, jsonscan.SkipSpace(b, 0), &jsonscan.Keys{}, &jsonscan.Keys{}); (ok && jsonscan.End(b, i)) != c.wantFast {
			t.Errorf("%s: fast path ok=%v, want %v", c.name, ok, c.wantFast)
		}
		sameDecode(t, c.name, []byte(c.payload))
	}
}

// sameDecode checks DecodeReport against json.Unmarshal on payload:
// both refuse it, or both decode the same Report.
func sameDecode(t *testing.T, name string, payload []byte) {
	t.Helper()
	var want Report
	werr := json.Unmarshal(payload, &want)
	got, gerr := DecodeReport(payload, &jsonscan.Keys{}, &jsonscan.Keys{})
	switch {
	case (werr == nil) != (gerr == nil):
		t.Errorf("%s %q: json.Unmarshal err %v, DecodeReport err %v", name, payload, werr, gerr)
	case werr == nil && !reflect.DeepEqual(got, want):
		t.Errorf("%s %q: DecodeReport %#v, json.Unmarshal %#v", name, payload, got, want)
	}
}

// TestValidateRejectsNonFinite checks that a report the encoder could
// not journal — a NaN reading or a non-finite position — is refused
// with ErrInvalidReport before admission, so Submit journals nothing.
func TestValidateRejectsNonFinite(t *testing.T) {
	inf := math.Inf(1)
	obs := map[string]float64{"ap0": -50}
	cases := []struct {
		name string
		r    Report
		ok   bool
	}{
		{"valid", Report{Name: "g0", Pos: &ReportPos{X: 1, Y: 2}, Observation: obs}, true},
		{"bounds", Report{Name: "g0", Observation: map[string]float64{"a": -120, "b": 0}}, true},
		{"NaN RSSI", Report{Name: "g0", Observation: map[string]float64{"ap0": math.NaN()}}, false},
		{"+Inf RSSI", Report{Name: "g0", Observation: map[string]float64{"ap0": inf}}, false},
		{"-Inf RSSI", Report{Name: "g0", Observation: map[string]float64{"ap0": -inf}}, false},
		{"NaN x", Report{Pos: &ReportPos{X: math.NaN()}, Observation: obs}, false},
		{"NaN y", Report{Name: "g0", Pos: &ReportPos{Y: math.NaN()}, Observation: obs}, false},
		{"+Inf x", Report{Pos: &ReportPos{X: inf}, Observation: obs}, false},
		{"-Inf y", Report{Pos: &ReportPos{Y: -inf}, Observation: obs}, false},
	}
	m := newTestManager(t, filepath.Join(t.TempDir(), "w.wal"), Config{})
	for _, c := range cases {
		if err := c.r.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok {
			continue
		}
		before := m.WAL().Seq()
		if err := m.Submit(c.r); !errors.Is(err, ErrInvalidReport) {
			t.Errorf("%s: Submit err %v, want ErrInvalidReport", c.name, err)
		}
		if after := m.WAL().Seq(); after != before {
			t.Errorf("%s: WAL seq %d -> %d, want nothing journaled", c.name, before, after)
		}
	}
}

// FuzzReportCodec holds the codec to encoding/json. The encoder must
// write json.Marshal's bytes for any report — unicode, HTML
// characters, invalid UTF-8, extreme and non-finite floats — and the
// decoder must decode what json.Unmarshal decodes, on its own output
// and on any payload, whichever path takes it.
//
//	go test -run '^$' -fuzz FuzzReportCodec -fuzztime 10s ./internal/ingest/
func FuzzReportCodec(f *testing.F) {
	f.Add("kitchen", true, 12.5, -3.0, "00:02:2d:0a:0b:0c", -61.0, "aa", -1e-7, false,
		[]byte(`{"name":"n","pos":{"x":1,"y":2},"observation":{"a":-1}}`))
	f.Add("<a&b>", false, 0.0, 0.0, "é", 1e21, "\x01", -0.000001, false, []byte(`{"observation":{"a":-1,"a":-2}}`))
	f.Add("bad\xff ", true, math.MaxFloat64, 5e-324, "", math.NaN(), "b", math.Inf(-1), true, []byte(`{"Name":"x"}`))
	f.Add("", false, 0.0, 0.0, "k", -123456789.125, "l", 9.999999999999999e20, true, []byte(`{"name":"n"} x`))
	f.Fuzz(func(t *testing.T, name string, hasPos bool, x, y float64, k1 string, v1 float64, k2 string, v2 float64, nilObs bool, payload []byte) {
		r := Report{Name: name}
		if hasPos {
			r.Pos = &ReportPos{X: x, Y: y}
		}
		if !nilObs {
			r.Observation = map[string]float64{k1: v1, k2: v2}
		}
		sameEncoding(t, "report", &r)
		if enc, err := AppendReport(nil, &r); err == nil {
			sameDecode(t, "encoded", enc)
		}
		sameDecode(t, "payload", payload)
	})
}
