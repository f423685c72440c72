package trainingdb

import (
	"bytes"
	"fmt"
	"hash/crc32"
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
// load; a v2 artifact stores the compiled matrices themselves in their
// in-memory layout, so loading is a header parse plus pointer casts
// into the mapping — cold venue loads touch no matrix pages until the
// first query faults them in.
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
//	…      …   section payloads, 8-byte aligned; per-cell matrices
//	           page-aligned (4096) so a mapping shares whole pages
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
	mapPageAlign     = 4096
	mapMaxSections   = 64
	mapSectionsStart = mapHeaderSize
)

// Section ids. Required sections carry the view's identity and the
// small per-entry vectors; the float64 matrices and the quantized
// mirror are each optional, but at least one family must be present.
// The quantized mirror's posting lists (post-start, postings) are
// written by every encoder. An artifact from before them, or one that
// carries the retired 12-byte post section, gets its lists rebuilt at
// decode.
const (
	secNames           uint32 = iota + 1 // [nE+1]u32 offsets + name blob
	secBSSIDs                            // [nAP+1]u32 offsets + BSSID blob
	secPos                               // [nE]{x, y float64}
	secTrained                           // [nE*nAP]bool
	secN                                 // [nE*nAP]int32
	secUnheardLL                         // [nE]float64
	secSignalBase                        // [nE]float64
	secMean                              // [nE*nAP]float64
	secSigma                             // [nE*nAP]float64
	secLogNorm                           // [nE*nAP]float64
	secFloorLL                           // [nE*nAP]float64
	secMeanQ                             // [nE*nAP]int16
	secSigmaQ                            // [nE*nAP]int16
	secLogNormQ                          // [nE*nAP]int16
	secFloorLLQ                          // [nE*nAP]int16
	secQuantFactors                      // [8*nAP]float64: {scale, off} × {mean, sigma, lognorm, floorll}
	secQuantUnheardLL                    // [nE]float64
	secQuantSignalBase                   // [nE]float64
	secPostStart                         // [nAP+1]int32 posting-list starts
	secPost                              // retired 12-byte records; decode ignores it
	secPostings                          // [n]Posting, AP-major trained cells
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
	secPostings: "postings",
}

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
//loclint:mmapdecode caller-checked: take/takeVar validate exact section length and alignment via parseHeader
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

// section is one encode-side payload with its required alignment.
type section struct {
	id    uint32
	data  []byte
	align int
}

// EncodeCompiled serializes the view into a v2 artifact. The view must
// carry the float64 matrices, the quantized mirror, or both.
func EncodeCompiled(c *Compiled) ([]byte, error) {
	nE, nAP := len(c.Names), len(c.BSSIDs)
	cells := nE * nAP
	if len(c.Pos) != nE || len(c.Trained) != cells || len(c.N) != cells ||
		len(c.UnheardLL) != nE || len(c.SignalBase) != nE {
		return nil, fmt.Errorf("trainingdb: encode: inconsistent view dimensions")
	}
	hasFloat := c.Mean != nil
	if hasFloat && (len(c.Mean) != cells || len(c.Sigma) != cells ||
		len(c.LogNorm) != cells || len(c.FloorLL) != cells) {
		return nil, fmt.Errorf("trainingdb: encode: inconsistent float64 matrices")
	}
	q := c.Quant
	if !hasFloat && q == nil {
		return nil, fmt.Errorf("trainingdb: encode: view has no matrices")
	}

	secs := []section{
		{secNames, stringTable(c.Names), 8},
		{secBSSIDs, stringTable(c.BSSIDs), 8},
		{secPos, byteView(c.Pos), 8},
		{secTrained, byteView(c.Trained), mapPageAlign},
		{secN, byteView(c.N), mapPageAlign},
		{secUnheardLL, byteView(c.UnheardLL), 8},
		{secSignalBase, byteView(c.SignalBase), 8},
	}
	if hasFloat {
		secs = append(secs,
			section{secMean, byteView(c.Mean), mapPageAlign},
			section{secSigma, byteView(c.Sigma), mapPageAlign},
			section{secLogNorm, byteView(c.LogNorm), mapPageAlign},
			section{secFloorLL, byteView(c.FloorLL), mapPageAlign},
		)
	}
	if q != nil {
		if len(q.MeanQ) != cells || len(q.SigmaQ) != cells ||
			len(q.LogNormQ) != cells || len(q.FloorLLQ) != cells ||
			len(q.MeanScale) != nAP || len(q.UnheardLL) != nE || len(q.SignalBase) != nE ||
			len(q.PostStart) != nAP+1 || int(q.PostStart[nAP]) != len(q.Post) {
			return nil, fmt.Errorf("trainingdb: encode: inconsistent quantized mirror")
		}
		factors := make([]float64, 0, 8*nAP)
		for _, f := range [][]float64{
			q.MeanScale, q.MeanOff, q.SigmaScale, q.SigmaOff,
			q.LogNormScale, q.LogNormOff, q.FloorLLScale, q.FloorLLOff,
		} {
			if len(f) != nAP {
				return nil, fmt.Errorf("trainingdb: encode: inconsistent quantized factors")
			}
			factors = append(factors, f...)
		}
		secs = append(secs,
			section{secMeanQ, byteView(q.MeanQ), mapPageAlign},
			section{secSigmaQ, byteView(q.SigmaQ), mapPageAlign},
			section{secLogNormQ, byteView(q.LogNormQ), mapPageAlign},
			section{secFloorLLQ, byteView(q.FloorLLQ), mapPageAlign},
			section{secQuantFactors, byteView(factors), 8},
			section{secQuantUnheardLL, byteView(q.UnheardLL), 8},
			section{secQuantSignalBase, byteView(q.SignalBase), 8},
			section{secPostStart, byteView(q.PostStart), 8},
			section{secPostings, byteView(q.Post), 8},
		)
	}
	return layoutArtifact(c.Generation, c.FloorRSSI, c.FloorSigma, nE, nAP, secs), nil
}

// layoutArtifact writes the header, the section table and the payloads
// after it, honouring each section's alignment.
func layoutArtifact(gen uint64, floorRSSI, floorSigma float64, nE, nAP int, secs []section) []byte {
	tableEnd := mapSectionsStart + len(secs)*mapSectionSize
	offsets := make([]int, len(secs))
	end := tableEnd
	for i, s := range secs {
		a := s.align
		end = (end + a - 1) / a * a
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
	putLE64(buf[16:], gen)
	putLE64(buf[24:], f64bits(floorRSSI))
	putLE64(buf[32:], f64bits(floorSigma))
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
	return buf
}

// DecodeOptions controls DecodeCompiled's validation depth.
type DecodeOptions struct {
	// VerifyCRC checks every section's CRC-32, the Trained bytes and
	// the posting lists against a rebuild from the dense int16
	// matrices, touching all payload pages. The serve path leaves it
	// off so an mmap load stays lazy (the header+table CRC and the
	// posting-list invariants are always checked); tdbtool verify and
	// the fuzz harness turn it on.
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
	// A valid file stores ≥1 byte per Trained cell, so the dimensions
	// are bounded by the file size — checked via section lengths below;
	// this guard only blocks multiplication overflow.
	if nE < 0 || nAP < 0 || (nAP != 0 && nE > (1<<31)/max(nAP, 1)) {
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
	// A view with no entries cannot rank anything: a locate that heard
	// one of its APs would index an empty candidate list.
	if nE == 0 {
		return nil, fmt.Errorf("trainingdb: decode: artifact has no entries")
	}
	cells := nE * nAP

	// take fetches a required section after validating its exact
	// length; the expected sizes derive from the header dimensions, so
	// nothing downstream allocates more than the file can justify.
	missing := func(id uint32) error {
		return fmt.Errorf("trainingdb: decode: missing section %s", sectionNames[id])
	}
	take := func(id uint32, wantLen int) ([]byte, error) {
		s, ok := secs[id]
		if !ok {
			return nil, missing(id)
		}
		if s.length != wantLen {
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
	// Variable-length string sections validate bounds internally.
	takeVar := func(id uint32) ([]byte, error) {
		s, ok := secs[id]
		if !ok {
			return nil, missing(id)
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
	namesPayload, err := takeVar(secNames)
	if err != nil {
		return nil, err
	}
	if c.Names, err = decodeStrings(namesPayload, nE, "names"); err != nil {
		return nil, err
	}
	bssidPayload, err := takeVar(secBSSIDs)
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
	if p, err = take(secTrained, cells); err != nil {
		return nil, err
	}
	if opts.VerifyCRC {
		for i, b := range p {
			if b > 1 {
				return nil, fmt.Errorf("trainingdb: decode: trained byte %d is %d", i, b)
			}
		}
	}
	c.Trained = castSlice[bool](p, cells)
	if p, err = take(secN, cells*4); err != nil {
		return nil, err
	}
	c.N = castSlice[int32](p, cells)
	if p, err = take(secUnheardLL, nE*8); err != nil {
		return nil, err
	}
	c.UnheardLL = castSlice[float64](p, nE)
	if p, err = take(secSignalBase, nE*8); err != nil {
		return nil, err
	}
	c.SignalBase = castSlice[float64](p, nE)

	_, hasFloat := secs[secMean]
	if hasFloat {
		if p, err = take(secMean, cells*8); err != nil {
			return nil, err
		}
		c.Mean = castSlice[float64](p, cells)
		if p, err = take(secSigma, cells*8); err != nil {
			return nil, err
		}
		c.Sigma = castSlice[float64](p, cells)
		if p, err = take(secLogNorm, cells*8); err != nil {
			return nil, err
		}
		c.LogNorm = castSlice[float64](p, cells)
		if p, err = take(secFloorLL, cells*8); err != nil {
			return nil, err
		}
		c.FloorLL = castSlice[float64](p, cells)
	}
	if _, hasQuant := secs[secMeanQ]; hasQuant {
		q := &Quant{}
		if p, err = take(secMeanQ, cells*2); err != nil {
			return nil, err
		}
		q.MeanQ = castSlice[int16](p, cells)
		if p, err = take(secSigmaQ, cells*2); err != nil {
			return nil, err
		}
		q.SigmaQ = castSlice[int16](p, cells)
		if p, err = take(secLogNormQ, cells*2); err != nil {
			return nil, err
		}
		q.LogNormQ = castSlice[int16](p, cells)
		if p, err = take(secFloorLLQ, cells*2); err != nil {
			return nil, err
		}
		q.FloorLLQ = castSlice[int16](p, cells)
		if p, err = take(secQuantFactors, 8*nAP*8); err != nil {
			return nil, err
		}
		factors := castSlice[float64](p, 8*nAP)
		q.MeanScale = factors[0*nAP : 1*nAP : 1*nAP]
		q.MeanOff = factors[1*nAP : 2*nAP : 2*nAP]
		q.SigmaScale = factors[2*nAP : 3*nAP : 3*nAP]
		q.SigmaOff = factors[3*nAP : 4*nAP : 4*nAP]
		q.LogNormScale = factors[4*nAP : 5*nAP : 5*nAP]
		q.LogNormOff = factors[5*nAP : 6*nAP : 6*nAP]
		q.FloorLLScale = factors[6*nAP : 7*nAP : 7*nAP]
		q.FloorLLOff = factors[7*nAP : 8*nAP : 8*nAP]
		if p, err = take(secQuantUnheardLL, nE*8); err != nil {
			return nil, err
		}
		q.UnheardLL = castSlice[float64](p, nE)
		if p, err = take(secQuantSignalBase, nE*8); err != nil {
			return nil, err
		}
		q.SignalBase = castSlice[float64](p, nE)
		// Posting lists: cast zero-copy once validated, or rebuilt
		// from Trained and the codes for an artifact without the
		// postings section (from before posting lists, or carrying
		// only the retired 12-byte post section).
		if _, hasPost := secs[secPostings]; hasPost {
			if p, err = take(secPostStart, (nAP+1)*4); err != nil {
				return nil, err
			}
			q.PostStart = castSlice[int32](p, nAP+1)
			if p, err = takeVar(secPostings); err != nil {
				return nil, err
			}
			if len(p)%postingSize != 0 {
				return nil, fmt.Errorf("trainingdb: decode: section postings is %d bytes, not a multiple of %d",
					len(p), postingSize)
			}
			q.Post = castSlice[Posting](p, len(p)/postingSize)
			if err = checkPostings(q.PostStart, q.Post, nE); err != nil {
				return nil, err
			}
			if opts.VerifyCRC {
				start, post := buildPostings(c.Trained, q, nE, nAP)
				if !bytes.Equal(byteView(start), byteView(q.PostStart)) ||
					!bytes.Equal(byteView(post), byteView(q.Post)) {
					return nil, fmt.Errorf("trainingdb: decode: posting lists disagree with the int16 matrices")
				}
			}
		} else {
			q.PostStart, q.Post = buildPostings(c.Trained, q, nE, nAP)
		}
		c.Quant = q
	}
	if !hasFloat && c.Quant == nil {
		return nil, fmt.Errorf("trainingdb: decode: artifact carries no matrices")
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
	Quantized    bool
	HasFloat64   bool
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
	_, info.HasFloat64 = secs[secMean]
	_, info.Quantized = secs[secMeanQ]
	for _, s := range secs {
		info.Sections = append(info.Sections, SectionInfo{
			ID: s.id, Name: sectionNames[s.id],
			Offset: uint64(s.off), Length: uint64(s.length), CRC: s.crc,
		})
	}
	sort.Slice(info.Sections, func(i, j int) bool { return info.Sections[i].Offset < info.Sections[j].Offset })
	return info, nil
}

// WriteCompiledFile atomically writes the view as a v2 artifact: the
// bytes land in a temp file in the target directory, are fsynced, and
// replace path via rename, so readers never observe a torn artifact.
func WriteCompiledFile(path string, c *Compiled) error {
	buf, err := EncodeCompiled(c)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ilrmap-*")
	if err != nil {
		return fmt.Errorf("trainingdb: write artifact: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("trainingdb: write artifact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("trainingdb: sync artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("trainingdb: close artifact: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("trainingdb: publish artifact: %w", err)
	}
	return nil
}
