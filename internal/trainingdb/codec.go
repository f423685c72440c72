package trainingdb

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"indoorloc/internal/geom"
)

// Compiled-map format v2: a versioned, CRC-checked binary serialization
// of a Compiled view that can be written once by the trainer and
// memory-mapped read-only at load. The gob+gzip DB format (Save/Load)
// stores raw samples and statistics and must be re-Compiled after every
// load; a v2 artifact stores the compiled view itself in its in-memory
// layout, so loading is a header parse plus pointer casts into the
// mapping and a walk of the posting lists' entry indices.
//
// File layout (all header fields little-endian regardless of host):
//
//	offset size
//	0      8   magic "ILRMAPv2"
//	8      4   CRC-32 (IEEE) of header+section table, this field zeroed
//	12     4   flags (bit 0: payload is little-endian)
//	16     8   source DB generation
//	24     8   floor RSSI (IEEE 754 bits)
//	32     8   floor sigma (IEEE 754 bits)
//	40     4   entry count nE
//	44     4   AP count nAP
//	48     4   section count
//	52     4   reserved (zero)
//	56     …   section table: count × {id u32, crc u32, offset u64, length u64}
//	…      …   section payloads, 8-byte aligned
//
// Sections may not overlap, must lie inside the file, and must have
// exactly the length their id and the header dimensions dictate —
// decode validates all of that before touching a payload byte, so a
// hostile header cannot make it over-allocate. Payload numbers are
// raw host-order memory at write time; a decoder on a foreign-endian
// host refuses the file rather than byte-swap (flags bit 0).
const (
	// MapMagic opens every compiled-map v2 artifact.
	MapMagic = "ILRMAPv2"

	mapHeaderSize    = 56
	mapSectionSize   = 24
	mapFlagLittle    = 1 << 0
	mapMaxSections   = 64
	mapSectionsStart = mapHeaderSize
)

// Section ids. Ids are never reused. The encoder writes names, bssids,
// pos, unheard-ll, signal-base, post-start, postings and post-n. The
// dense trained and n matrices, the dense float64 matrices (mean …
// floor-ll), the int16 codes with their factors and baselines (mean-q
// … quant-signal-base) and the 12-byte post records are retired: their
// ids stay reserved and named so inspection can print an old table,
// and decode refuses an artifact without post-n (ErrRetiredArtifact).
const (
	secNames           uint32 = iota + 1 // [nE+1]u32 offsets + name blob
	secBSSIDs                            // [nAP+1]u32 offsets + BSSID blob
	secPos                               // [nE]{x, y float64}
	secTrained                           // retired: [nE*nAP]bool
	secN                                 // retired: [nE*nAP]int32
	secUnheardLL                         // [nE]float64
	secSignalBase                        // [nE]float64
	secMean                              // retired: [nE*nAP]float64
	secSigma                             // retired: [nE*nAP]float64
	secLogNorm                           // retired: [nE*nAP]float64
	secFloorLL                           // retired: [nE*nAP]float64
	secMeanQ                             // retired: [nE*nAP]int16
	secSigmaQ                            // retired: [nE*nAP]int16
	secLogNormQ                          // retired: [nE*nAP]int16
	secFloorLLQ                          // retired: [nE*nAP]int16
	secQuantFactors                      // retired: [8*nAP]float64, {scale, off} × {mean, sigma, lognorm, floorll}
	secQuantUnheardLL                    // retired: [nE]float64
	secQuantSignalBase                   // retired: [nE]float64
	secPostStart                         // [nAP+1]int32 posting-list starts
	secPost                              // retired: 12-byte records
	secPostings                          // [n]Posting, AP-major trained cells
	secPostN                             // [n]int32 sample counts, parallel to postings
	secEnd                               // one past the last valid id
)

var sectionNames = map[uint32]string{
	secNames: "names", secBSSIDs: "bssids", secPos: "pos",
	secTrained: "trained", secN: "n",
	secUnheardLL: "unheard-ll", secSignalBase: "signal-base",
	secMean: "mean", secSigma: "sigma", secLogNorm: "lognorm", secFloorLL: "floor-ll",
	secMeanQ: "mean-q", secSigmaQ: "sigma-q", secLogNormQ: "lognorm-q", secFloorLLQ: "floorll-q",
	secQuantFactors: "quant-factors", secQuantUnheardLL: "quant-unheard-ll",
	secQuantSignalBase: "quant-signal-base", secPostStart: "post-start", secPost: "post",
	secPostings: "postings", secPostN: "post-n",
}

// ErrRetiredArtifact refuses an artifact in a layout written before
// the posting lists and their counts (post-n) were its only form.
// Such a file is derived data: recompile it from its training
// database.
var ErrRetiredArtifact = errors.New("trainingdb: artifact predates the posting-list layout; recompile it from its .tdb with tdbtool compile")

// hostLittle reports the running machine's byte order.
//
//loclint:mmapdecode single-byte probe of a local stack scalar
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// geom.Point must be two packed float64s for the Pos section's raw
// cast; this fails to compile if the layout ever changes.
var _ = [1]struct{}{}[unsafe.Sizeof(geom.Point{})-16]

// postingSize is the packed size of one Posting in the postings
// section.
const postingSize = 16

var _ = [1]struct{}{}[unsafe.Sizeof(Posting{})-postingSize]

// byteView reinterprets a typed slice as its raw bytes, sharing memory.
//
//loclint:mmapdecode empty slices are rejected and the length is computed from the input
func byteView[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(t)))
}

// castSlice reinterprets a byte payload as n elements of T. The caller
// has already validated length and 8-byte base alignment.
//
//loclint:mmapdecode caller-checked: take validates exact section length and alignment via parseHeader
func castSlice[T any](b []byte, n int) []T {
	if n == 0 {
		// Non-nil, so "section present but dimension zero" stays
		// distinguishable from "section absent".
		return []T{}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// Little-endian header field access (explicit, so headers parse the
// same on any host).
func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func le64(b []byte) uint64 { return uint64(le32(b)) | uint64(le32(b[4:]))<<32 }
func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func putLE64(b []byte, v uint64) {
	putLE32(b, uint32(v))
	putLE32(b[4:], uint32(v>>32))
}

// f64bits round-trips float64 header fields through their IEEE bits.
//
//loclint:mmapdecode caller-checked: reinterprets a local scalar in place
func f64bits(f float64) uint64 { return *(*uint64)(unsafe.Pointer(&f)) }

//loclint:mmapdecode caller-checked: reinterprets a local scalar in place
func f64frombits(u uint64) float64 { return *(*float64)(unsafe.Pointer(&u)) }

// stringTable flattens a string slice into the offsets+blob section
// payload: (n+1) uint32 offsets followed by the concatenated bytes.
func stringTable(ss []string) []byte {
	total := 0
	for _, s := range ss {
		total += len(s)
	}
	offs := make([]uint32, len(ss)+1)
	blob := make([]byte, 0, total)
	for i, s := range ss {
		offs[i] = uint32(len(blob))
		blob = append(blob, s...)
	}
	offs[len(ss)] = uint32(len(blob))
	out := make([]byte, 0, len(offs)*4+len(blob))
	out = append(out, byteView(offs)...)
	out = append(out, blob...)
	return out
}

// section is one encode-side payload.
type section struct {
	id   uint32
	data []byte
}

// EncodeCompiled serializes the view into a v2 artifact: the header,
// the section table, then each payload at the next 8-byte boundary.
func EncodeCompiled(c *Compiled) ([]byte, error) {
	nE, nAP := len(c.Names), len(c.BSSIDs)
	if len(c.Pos) != nE || len(c.UnheardLL) != nE || len(c.SignalBase) != nE {
		return nil, fmt.Errorf("trainingdb: encode: inconsistent view dimensions")
	}
	if len(c.PostStart) != nAP+1 || int(c.PostStart[nAP]) != len(c.Post) || len(c.PostN) != len(c.Post) {
		return nil, fmt.Errorf("trainingdb: encode: view has no consistent posting lists")
	}
	secs := []section{
		{secNames, stringTable(c.Names)},
		{secBSSIDs, stringTable(c.BSSIDs)},
		{secPos, byteView(c.Pos)},
		{secUnheardLL, byteView(c.UnheardLL)},
		{secSignalBase, byteView(c.SignalBase)},
		{secPostStart, byteView(c.PostStart)},
		{secPostings, byteView(c.Post)},
		{secPostN, byteView(c.PostN)},
	}
	tableEnd := mapSectionsStart + len(secs)*mapSectionSize
	offsets := make([]int, len(secs))
	end := tableEnd
	for i, s := range secs {
		end = (end + 7) / 8 * 8
		offsets[i] = end
		end += len(s.data)
	}

	buf := make([]byte, end)
	copy(buf, MapMagic)
	flags := uint32(0)
	if hostLittle {
		flags |= mapFlagLittle
	}
	putLE32(buf[12:], flags)
	putLE64(buf[16:], c.Generation)
	putLE64(buf[24:], f64bits(c.FloorRSSI))
	putLE64(buf[32:], f64bits(c.FloorSigma))
	putLE32(buf[40:], uint32(nE))
	putLE32(buf[44:], uint32(nAP))
	putLE32(buf[48:], uint32(len(secs)))
	for i, s := range secs {
		entry := buf[mapSectionsStart+i*mapSectionSize:]
		putLE32(entry, s.id)
		putLE32(entry[4:], crc32.ChecksumIEEE(s.data))
		putLE64(entry[8:], uint64(offsets[i]))
		putLE64(entry[16:], uint64(len(s.data)))
		copy(buf[offsets[i]:], s.data)
	}
	// Header CRC covers header+table with its own field zeroed (it is).
	putLE32(buf[8:], crc32.ChecksumIEEE(buf[:tableEnd]))
	return buf, nil
}

// DecodeOptions controls DecodeCompiled's validation depth.
type DecodeOptions struct {
	// VerifyCRC checks every section's CRC-32 and that every posting
	// record is finite with a positive HalfPrec, touching all payload
	// pages. The serve path leaves it off so an mmap load stays lazy
	// (the header+table CRC and the posting-list structure are always
	// checked); tdbtool verify, replication and the fuzz harness turn
	// it on.
	VerifyCRC bool
}

// parsedSection is one validated table entry.
type parsedSection struct {
	id     uint32
	crc    uint32
	off    int
	length int
}

// parseHeader validates magic, CRC, dimensions and the section table
// (bounds, alignment, overlaps, duplicates) without touching payloads.
func parseHeader(data []byte) (gen uint64, floorRSSI, floorSigma float64, nE, nAP int, secs map[uint32]parsedSection, err error) {
	fail := func(format string, args ...any) (uint64, float64, float64, int, int, map[uint32]parsedSection, error) {
		return 0, 0, 0, 0, 0, nil, fmt.Errorf("trainingdb: decode: "+format, args...)
	}
	if len(data) < mapHeaderSize {
		return fail("truncated header (%d bytes)", len(data))
	}
	if string(data[:8]) != MapMagic {
		return fail("bad magic %q", data[:8])
	}
	flags := le32(data[12:])
	if (flags&mapFlagLittle != 0) != hostLittle {
		return fail("artifact byte order does not match this host")
	}
	count := int(le32(data[48:]))
	if count <= 0 || count > mapMaxSections {
		return fail("section count %d out of range", count)
	}
	tableEnd := mapSectionsStart + count*mapSectionSize
	if len(data) < tableEnd {
		return fail("truncated section table")
	}
	wantCRC := le32(data[8:])
	hdr := make([]byte, tableEnd)
	copy(hdr, data[:tableEnd])
	putLE32(hdr[8:], 0)
	if got := crc32.ChecksumIEEE(hdr); got != wantCRC {
		return fail("header CRC mismatch (%08x != %08x)", got, wantCRC)
	}
	nE = int(le32(data[40:]))
	nAP = int(le32(data[44:]))
	// Posting entries and starts are int32. A valid file stores ≥4
	// bytes per entry and per AP (string-table offsets), so section
	// lengths bound the dimensions by the file size on decode.
	if nE < 0 || nAP < 0 || nE > math.MaxInt32 || nAP >= math.MaxInt32 {
		return fail("dimensions %d×%d out of range", nE, nAP)
	}
	secs = make(map[uint32]parsedSection, count)
	ordered := make([]parsedSection, 0, count)
	for i := 0; i < count; i++ {
		entry := data[mapSectionsStart+i*mapSectionSize:]
		s := parsedSection{id: le32(entry), crc: le32(entry[4:])}
		off, length := le64(entry[8:]), le64(entry[16:])
		if s.id == 0 || s.id >= secEnd {
			return fail("unknown section id %d", s.id)
		}
		if off%8 != 0 {
			return fail("section %s misaligned at %d", sectionNames[s.id], off)
		}
		if off < uint64(tableEnd) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return fail("section %s out of bounds", sectionNames[s.id])
		}
		s.off, s.length = int(off), int(length)
		if _, dup := secs[s.id]; dup {
			return fail("duplicate section %s", sectionNames[s.id])
		}
		secs[s.id] = s
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].off < ordered[j].off })
	prevEnd := tableEnd
	for _, s := range ordered {
		if s.off < prevEnd {
			return fail("section %s overlaps its predecessor", sectionNames[s.id])
		}
		prevEnd = s.off + s.length
	}
	return le64(data[16:]), f64frombits(le64(data[24:])), f64frombits(le64(data[32:])), nE, nAP, secs, nil
}

// decodeStrings rebuilds a string slice from an offsets+blob section,
// with every string an unsafe view into the payload (zero copy).
//
//loclint:mmapdecode table length, blob length, and offset monotonicity all checked before each view
func decodeStrings(payload []byte, n int, what string) ([]string, error) {
	offBytes := (n + 1) * 4
	if len(payload) < offBytes {
		return nil, fmt.Errorf("trainingdb: decode: %s table truncated", what)
	}
	offs := castSlice[uint32](payload, n+1)
	blob := payload[offBytes:]
	if int(offs[n]) != len(blob) {
		return nil, fmt.Errorf("trainingdb: decode: %s blob length mismatch", what)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		if offs[i] > offs[i+1] {
			return nil, fmt.Errorf("trainingdb: decode: %s offsets not monotonic", what)
		}
		if offs[i] == offs[i+1] {
			continue
		}
		out[i] = unsafe.String(&blob[offs[i]], int(offs[i+1]-offs[i]))
	}
	return out, nil
}

// DecodeCompiled rebuilds a Compiled view from a v2 artifact. The view
// aliases data — slices and strings point straight into it, so the
// caller must keep data immutable and alive for the view's lifetime
// (an mmap'd file region, or any byte slice). If data's base address
// is not 8-byte aligned the payload is copied once instead of aliased.
//
//loclint:mmapdecode alignment probe behind a len guard; section casts delegate to the blessed helpers
func DecodeCompiled(data []byte, opts DecodeOptions) (*Compiled, error) {
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		aligned := make([]byte, len(data))
		copy(aligned, data)
		data = aligned
	}
	gen, floorRSSI, floorSigma, nE, nAP, secs, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if _, ok := secs[secPostN]; !ok {
		return nil, ErrRetiredArtifact
	}
	// A view with no entries cannot rank anything: a locate that heard
	// one of its APs would index an empty candidate list.
	if nE == 0 {
		return nil, fmt.Errorf("trainingdb: decode: artifact has no entries")
	}

	// take fetches a required section after validating its exact
	// length; the expected sizes derive from the header dimensions, so
	// nothing downstream allocates more than the file can justify.
	take := func(id uint32, wantLen int) ([]byte, error) {
		s, ok := secs[id]
		if !ok {
			return nil, fmt.Errorf("trainingdb: decode: missing section %s", sectionNames[id])
		}
		if wantLen != anyLength && s.length != wantLen {
			return nil, fmt.Errorf("trainingdb: decode: section %s is %d bytes, want %d",
				sectionNames[id], s.length, wantLen)
		}
		p := data[s.off : s.off+s.length]
		if opts.VerifyCRC {
			if got := crc32.ChecksumIEEE(p); got != s.crc {
				return nil, fmt.Errorf("trainingdb: decode: section %s CRC mismatch (%08x != %08x)",
					sectionNames[id], got, s.crc)
			}
		}
		return p, nil
	}

	c := &Compiled{
		Generation: gen,
		FloorRSSI:  floorRSSI,
		FloorSigma: floorSigma,
		backing:    data,
	}
	namesPayload, err := take(secNames, anyLength)
	if err != nil {
		return nil, err
	}
	if c.Names, err = decodeStrings(namesPayload, nE, "names"); err != nil {
		return nil, err
	}
	bssidPayload, err := take(secBSSIDs, anyLength)
	if err != nil {
		return nil, err
	}
	if c.BSSIDs, err = decodeStrings(bssidPayload, nAP, "bssids"); err != nil {
		return nil, err
	}
	p, err := take(secPos, nE*16)
	if err != nil {
		return nil, err
	}
	c.Pos = castSlice[geom.Point](p, nE)
	if p, err = take(secUnheardLL, nE*8); err != nil {
		return nil, err
	}
	c.UnheardLL = castSlice[float64](p, nE)
	if p, err = take(secSignalBase, nE*8); err != nil {
		return nil, err
	}
	c.SignalBase = castSlice[float64](p, nE)

	if p, err = take(secPostStart, (nAP+1)*4); err != nil {
		return nil, err
	}
	c.PostStart = castSlice[int32](p, nAP+1)
	if p, err = take(secPostings, anyLength); err != nil {
		return nil, err
	}
	if len(p)%postingSize != 0 {
		return nil, fmt.Errorf("trainingdb: decode: section postings is %d bytes, not a multiple of %d",
			len(p), postingSize)
	}
	c.Post = castSlice[Posting](p, len(p)/postingSize)
	if p, err = take(secPostN, len(c.Post)*4); err != nil {
		return nil, err
	}
	c.PostN = castSlice[int32](p, len(c.Post))
	if err = checkPostings(c.PostStart, c.Post, nE); err != nil {
		return nil, err
	}
	if opts.VerifyCRC {
		if err = checkRecords(c); err != nil {
			return nil, err
		}
	}

	c.apIndex = make(map[string]int, nAP)
	for j, b := range c.BSSIDs {
		c.apIndex[b] = j
	}
	return c, nil
}

// checkPostings validates posting lists before any scan indexes with
// them: the starts rise monotonically from 0 to len(post), and each
// list's entries strictly increase and stay below nE.
func checkPostings(start []int32, post []Posting, nE int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("trainingdb: decode: posting lists: "+format, args...)
	}
	if start[0] != 0 {
		return fail("first start is %d, want 0", start[0])
	}
	for j := 0; j+1 < len(start); j++ {
		lo, hi := start[j], start[j+1]
		if hi < lo || int(hi) > len(post) {
			return fail("start %d of column %d out of order", hi, j+1)
		}
		prev := int32(-1)
		for _, p := range post[lo:hi] {
			if p.Entry <= prev || int(p.Entry) >= nE {
				return fail("column %d lists entry %d after %d (entries %d)", j, p.Entry, prev, nE)
			}
			prev = p.Entry
		}
	}
	if int(start[len(start)-1]) != len(post) {
		return fail("starts cover %d postings, section holds %d", start[len(start)-1], len(post))
	}
	return nil
}

// checkRecords is VerifyCRC's semantic pass over lists that already
// passed checkPostings: every record is finite with a positive
// HalfPrec.
func checkRecords(c *Compiled) error {
	finite := func(f float32) bool { return !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) }
	for k, p := range c.Post {
		if !finite(p.Center) || !finite(p.Const) || !finite(p.HalfPrec) || !(p.HalfPrec > 0) {
			return fmt.Errorf("trainingdb: decode: posting records: posting %d holds %+v", k, p)
		}
	}
	return nil
}

// anyLength asks take for a variable-length section, which validates
// its own bounds.
const anyLength = -1

// SectionInfo describes one artifact section for inspection tools.
type SectionInfo struct {
	ID     uint32
	Name   string
	Offset uint64
	Length uint64
	CRC    uint32
}

// FileInfo is the human-readable artifact summary tdbtool inspect
// prints: the header fields plus the section table.
type FileInfo struct {
	Version      string
	LittleEndian bool
	Generation   uint64
	FloorRSSI    float64
	FloorSigma   float64
	NumEntries   int
	NumAPs       int
	Sections     []SectionInfo
}

// ReadFileInfo parses and validates an artifact's header and section
// table without decoding payloads.
func ReadFileInfo(data []byte) (*FileInfo, error) {
	gen, floorRSSI, floorSigma, nE, nAP, secs, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	info := &FileInfo{
		Version:      MapMagic,
		LittleEndian: le32(data[12:])&mapFlagLittle != 0,
		Generation:   gen,
		FloorRSSI:    floorRSSI,
		FloorSigma:   floorSigma,
		NumEntries:   nE,
		NumAPs:       nAP,
	}
	for _, s := range secs {
		info.Sections = append(info.Sections, SectionInfo{
			ID: s.id, Name: sectionNames[s.id],
			Offset: uint64(s.off), Length: uint64(s.length), CRC: s.crc,
		})
	}
	sort.Slice(info.Sections, func(i, j int) bool { return info.Sections[i].Offset < info.Sections[j].Offset })
	return info, nil
}

// WriteCompiledFile atomically writes the view as a v2 artifact (see
// WriteFileAtomic), so readers never observe a torn artifact.
func WriteCompiledFile(path string, c *Compiled) error {
	buf, err := EncodeCompiled(c)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, buf)
}

// WriteFileAtomic writes data to path so that a reader, or a crash,
// sees either the old file or the whole new one: the bytes land in a
// temp file in the target directory, are fsynced, and replace path via
// rename. On failure the temp file is removed.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("trainingdb: write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("trainingdb: write %s: %w", path, err)
	}
	return nil
}
