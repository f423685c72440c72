// tdbtool inspects and maintains training databases.
//
// Usage:
//
//	tdbtool -db train.tdb -info                       # summary
//	tdbtool -db train.tdb -entries                    # per-location stats
//	tdbtool -db train.tdb -export train.json          # JSON interchange
//	tdbtool -db train.tdb -export train.json -samples # include raw samples
//	tdbtool -db train.tdb -import train.json          # JSON → .tdb
//	tdbtool -db train.tdb -prune 5 -out pruned.tdb    # drop sparse APs
//	tdbtool -db train.tdb -remove kitchen -out v2.tdb # drop a location
//	tdbtool -db train.tdb -confusable 5               # closest fingerprint pairs
//
// Compiled radio-map artifacts (the v2 binary locserved -map-file
// serves) have their own subcommands:
//
//	tdbtool compile -db train.tdb -out campus.ilr     # posting-list artifact
//	tdbtool compile -db train.tdb -out c.ilr -floor -92
//	tdbtool inspect campus.ilr                        # header + section table
//	tdbtool verify campus.ilr                         # full CRC + posting-record check
//
// The city subcommand generates a synthetic multi-venue artifact
// directory — the fixture `locserved -venues DIR` serves and the
// multi-venue soak measures:
//
//	tdbtool city -out ./city -campuses 10 -floors 4   # 40 venues
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"indoorloc/internal/ingest"
	"indoorloc/internal/sim"
	"indoorloc/internal/trainingdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tdbtool:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "compile":
			return runCompile(args[1:], out)
		case "inspect":
			return runInspect(args[1:], out)
		case "verify":
			return runVerify(args[1:], out)
		case "city":
			return runCity(args[1:], out)
		}
	}
	fs := flag.NewFlagSet("tdbtool", flag.ContinueOnError)
	var (
		dbPath     = fs.String("db", "", "training database (required)")
		info       = fs.Bool("info", false, "print a summary")
		entries    = fs.Bool("entries", false, "print per-location statistics")
		exportPath = fs.String("export", "", "write the database as JSON")
		samples    = fs.Bool("samples", false, "include raw samples in -export")
		importPath = fs.String("import", "", "read a JSON export and write it to -db")
		prune      = fs.Int("prune", 0, "drop per-location APs with fewer samples than this")
		remove     = fs.String("remove", "", "drop a training location by name")
		confusable = fs.Int("confusable", 0, "print the N closest fingerprint pairs")
		outPath    = fs.String("out", "", "where to write the modified database")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return fmt.Errorf("need -db FILE")
	}

	// Import mode: JSON in, tdb out.
	if *importPath != "" {
		fh, err := os.Open(*importPath)
		if err != nil {
			return err
		}
		db, err := trainingdb.ImportJSON(fh)
		fh.Close()
		if err != nil {
			return err
		}
		if err := trainingdb.SaveFile(*dbPath, db); err != nil {
			return err
		}
		fmt.Fprintf(out, "imported %s → %s (%d locations)\n", *importPath, *dbPath, db.Len())
		return nil
	}

	db, err := trainingdb.LoadFile(*dbPath)
	if err != nil {
		return err
	}
	modified := false

	if *prune > 0 {
		removed := db.PruneAPs(*prune)
		fmt.Fprintf(out, "pruned %d sparse ⟨location, AP⟩ records\n", removed)
		modified = true
	}
	if *remove != "" {
		if !db.RemoveEntry(*remove) {
			return fmt.Errorf("no location %q in the database", *remove)
		}
		fmt.Fprintf(out, "removed %q\n", *remove)
		modified = true
	}

	if *info {
		fmt.Fprintf(out, "locations: %d\nAPs: %d\nsamples: %d\n",
			db.Len(), len(db.BSSIDs), db.TotalSamples())
		for _, b := range db.BSSIDs {
			n := 0
			for _, e := range db.Entries {
				if s, ok := e.PerAP[b]; ok {
					n += s.N
				}
			}
			fmt.Fprintf(out, "  %s: %d samples\n", b, n)
		}
	}
	if *entries {
		for _, name := range db.Names() {
			e := db.Entries[name]
			fmt.Fprintf(out, "%s at %v:\n", name, e.Pos)
			bssids := make([]string, 0, len(e.PerAP))
			for b := range e.PerAP {
				bssids = append(bssids, b)
			}
			sort.Strings(bssids)
			for _, b := range bssids {
				s := e.PerAP[b]
				fmt.Fprintf(out, "  %s: n=%d mean=%.1f sd=%.1f range=[%.0f, %.0f]\n",
					b, s.N, s.Mean, s.StdDev, s.Min, s.Max)
			}
		}
	}
	if *confusable > 0 {
		type pair struct {
			key  string
			dist float64
		}
		var pairs []pair
		for k, v := range db.Distinguishability(-95) {
			pairs = append(pairs, pair{k, v})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].dist != pairs[j].dist {
				return pairs[i].dist < pairs[j].dist
			}
			return pairs[i].key < pairs[j].key
		})
		n := *confusable
		if n > len(pairs) {
			n = len(pairs)
		}
		fmt.Fprintf(out, "most confusable fingerprint pairs (signal-space dB distance):\n")
		for _, p := range pairs[:n] {
			fmt.Fprintf(out, "  %-28s %.1f dB\n", p.key, p.dist)
		}
	}
	if *exportPath != "" {
		fh, err := os.Create(*exportPath)
		if err != nil {
			return err
		}
		if err := trainingdb.ExportJSON(fh, db, *samples); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "exported %s\n", *exportPath)
	}
	if modified {
		dest := *outPath
		if dest == "" {
			return fmt.Errorf("database modified but no -out FILE given")
		}
		if err := trainingdb.SaveFile(dest, db); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", dest)
	}
	return nil
}

// runCompile is `tdbtool compile`: training database in, v2 radio-map
// artifact out — the posting lists every compiled-servable algorithm
// scores from.
func runCompile(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tdbtool compile", flag.ContinueOnError)
	var (
		dbPath     = fs.String("db", "", "training database to compile (required)")
		outPath    = fs.String("out", "", "artifact to write (required)")
		floor      = fs.Float64("floor", -95, "floor RSSI (dBm) substituted for unheard APs")
		floorSigma = fs.Float64("floor-sigma", 4, "floor model standard deviation (dB)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || *outPath == "" {
		return fmt.Errorf("compile needs -db FILE and -out FILE")
	}
	db, err := trainingdb.LoadFile(*dbPath)
	if err != nil {
		return err
	}
	c := db.Compile(*floor, *floorSigma)
	if err := trainingdb.WriteCompiledFile(*outPath, c); err != nil {
		return err
	}
	st, err := os.Stat(*outPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "compiled %s → %s: %d locations × %d APs, %d postings, %d posting bytes, %d on disk\n",
		*dbPath, *outPath, c.NumEntries(), c.NumAPs(), len(c.Post), c.PostingBytes(), st.Size())
	return nil
}

// runCity is `tdbtool city`: generate a synthetic city of venues as
// v2 artifacts, one <venue-id>.ilr per floor, in the layout
// venue.Registry serves from. The fixture is deterministic in -seed,
// so two runs with the same flags produce byte-identical directories.
func runCity(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tdbtool city", flag.ContinueOnError)
	var (
		outDir   = fs.String("out", "", "artifact directory to write (required)")
		campuses = fs.Int("campuses", 1, "buildings in the city")
		floors   = fs.Int("floors", 1, "floors per building; campuses × floors venues total")
		sweeps   = fs.Int("sweeps", 0, "training sweeps per grid point (0 = 3)")
		seed     = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outDir == "" {
		return fmt.Errorf("city needs -out DIR")
	}
	if *campuses <= 0 || *floors <= 0 || *sweeps < 0 {
		return fmt.Errorf("-campuses and -floors must be positive, -sweeps non-negative")
	}
	cfg := sim.CityConfig{Campuses: *campuses, Floors: *floors, Seed: *seed, Sweeps: *sweeps}
	ids, err := sim.WriteArtifacts(*outDir, cfg)
	if err != nil {
		return err
	}
	var total int64
	for _, id := range ids {
		st, err := os.Stat(fmt.Sprintf("%s/%s.ilr", *outDir, id))
		if err != nil {
			return err
		}
		total += st.Size()
	}
	fmt.Fprintf(out, "wrote %d venues (%s … %s) to %s, %d bytes total\n",
		len(ids), ids[0], ids[len(ids)-1], *outDir, total)
	return nil
}

// runInspect is `tdbtool inspect FILE`: print an artifact's header and
// section table without decoding (or CRC-checking) the payloads.
func runInspect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tdbtool inspect", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect needs exactly one artifact FILE")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	info, err := trainingdb.ReadFileInfo(data)
	if err != nil {
		return err
	}
	order := "big-endian"
	if info.LittleEndian {
		order = "little-endian"
	}
	fmt.Fprintf(out, "%s (%s payloads, %d bytes)\n", info.Version, order, len(data))
	fmt.Fprintf(out, "generation: %d\nlocations: %d\nAPs: %d\nfloor: %.1f dBm (σ %.1f)\n",
		info.Generation, info.NumEntries, info.NumAPs, info.FloorRSSI, info.FloorSigma)
	// A live trainer writes a "<FILE>.manifest" sidecar tying the
	// artifact to its WAL position; surface it when present so an
	// operator can line a follower's snapshot up with the journal. It
	// lands after the artifact, so an older generation's may be left.
	if am, err := ingest.ReadArtifactManifest(fs.Arg(0)); err == nil && am.Generation != info.Generation {
		fmt.Fprintf(out, "wal watermark: stale (manifest is generation %d, artifact generation %d)\n",
			am.Generation, info.Generation)
	} else if err == nil {
		fmt.Fprintf(out, "wal watermark: %d (epoch %016x, built %s)\n",
			am.Watermark, am.Epoch, am.BuiltAt.Format("2006-01-02T15:04:05Z07:00"))
	}
	fmt.Fprintf(out, "sections (%d):\n", len(info.Sections))
	for _, s := range info.Sections {
		fmt.Fprintf(out, "  %-18s off=%-10d len=%-10d crc=%08x\n", s.Name, s.Offset, s.Length, s.CRC)
	}
	return nil
}

// runVerify is `tdbtool verify FILE`: a full decode with every section
// CRC checked — the integrity pass OpenCompiledFile deliberately skips
// to keep the mmap load lazy.
func runVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tdbtool verify", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("verify needs exactly one artifact FILE")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	c, err := trainingdb.DecodeCompiled(data, trainingdb.DecodeOptions{VerifyCRC: true})
	if err != nil {
		return fmt.Errorf("verify %s: %w", fs.Arg(0), err)
	}
	fmt.Fprintf(out, "%s OK: %d locations × %d APs, generation %d, %d postings\n",
		fs.Arg(0), c.NumEntries(), c.NumAPs(), c.Generation, len(c.Post))
	return nil
}
