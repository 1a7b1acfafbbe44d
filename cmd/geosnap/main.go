// Command geosnap produces and verifies compiled-index snapshots — the
// learn-once/serve-many artifact geoserve cold-starts and hot-reloads
// from (see DESIGN.md §10 for the format). A snapshot carries the
// published conventions text in a versioned, checksummed binary file
// that geoloc.Load turns into a serving index without running the
// learning pipeline.
//
// Usage:
//
//	geosnap -corpus data/aug2020 -o index.snap [-workers n] [-no-learn] [-usable-only]
//	geosnap -nc conventions.txt -o index.snap
//	geosnap -snapshot old.snap -o new.snap      # rewrite, e.g. with -usable-only
//	geosnap -verify -snapshot index.snap        # integrity + compile check
//
// -verify reads the source and compiles it into a serving index with
// geoloc.New, the build the daemons boot and reload with, so it refuses
// what they refuse; it does not read back the file -o writes.
//
// The output file is written atomically (temp file + rename in the
// destination directory), so a geoserve instance told to reload via
// SIGHUP or /v1/admin/reload can never observe a half-written snapshot.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hoiho/internal/buildinfo"
	"hoiho/internal/geoloc"
)

func main() {
	src := &geoloc.Source{}
	src.RegisterFlags(flag.CommandLine)
	out := flag.String("o", "", "write the snapshot to this file (atomically)")
	verify := flag.Bool("verify", false,
		"verify the source instead of writing: checksums, format version, and a full index compile")
	usableOnly := flag.Bool("usable-only", false,
		"snapshot only good/promising conventions (the paper's production recommendation)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "geosnap")
		return
	}
	if _, err := src.Kind(); err != nil {
		fmt.Fprintln(os.Stderr, "geosnap:", err)
		flag.Usage()
		os.Exit(2)
	}
	if !*verify && *out == "" {
		fmt.Fprintln(os.Stderr, "geosnap: -o is required (or -verify to check without writing)")
		flag.Usage()
		os.Exit(2)
	}

	// Resolve compiles the full index, so a convention the daemons would
	// refuse (a regex that does not compile, a suffix no hostname
	// dispatches to) fails here — before a broken snapshot ships.
	resolved, err := src.Resolve(geoloc.Options{UsableOnly: *usableOnly})
	if err != nil {
		fatal(err)
	}
	res := resolved.Result
	if *usableOnly {
		kept := 0
		for suffix, nc := range res.NCs {
			if !nc.Class.Usable() {
				delete(res.NCs, suffix)
				continue
			}
			kept++
		}
		fmt.Fprintf(os.Stderr, "geosnap: keeping %d usable conventions\n", kept)
	}
	if *verify {
		fmt.Printf("ok: %s: %d conventions, %d compiled into a serving index\n",
			src.Describe(), len(res.NCs), resolved.Index.Len())
		if *out == "" {
			return
		}
	}

	n, err := geoloc.WriteAtomic(*out, func(w io.Writer) error { return geoloc.Save(w, res, nil) })
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d conventions (%d bytes, format v%d) to %s\n",
		len(res.NCs), n, geoloc.SnapshotVersion, *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geosnap:", err)
	os.Exit(1)
}
