package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/eval"
)

var update = flag.Bool("update", false, "regenerate testdata/experiments.golden instead of diffing")

// goldenFile holds `geoeval -experiment all -scale 0.4`: every entry of
// eval.Experiments, in table order.
const goldenFile = "testdata/experiments.golden"

// TestExperimentsGolden pins geoeval's output byte for byte: all of it
// at once, and each experiment on its own, which learns only the
// worlds the entry reads and must print exactly its section of the
// whole. `go test ./cmd/geoeval -update` regenerates the file after an
// intentional change.
func TestExperimentsGolden(t *testing.T) {
	var all bytes.Buffer
	if err := run(&all, "all", 0.4, core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenFile, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all.Bytes(), want) {
		t.Fatalf("geoeval -experiment all differs from %s:\n%s", goldenFile, all.Bytes())
	}
	if err := run(io.Discard, "nosuch", 0.4, core.DefaultConfig()); err == nil {
		t.Error("an unknown experiment name was accepted")
	}

	if testing.Short() {
		return // the per-experiment runs below learn the worlds again
	}
	rest := string(want)
	for _, e := range eval.Experiments {
		var one bytes.Buffer
		if err := run(&one, e.Name, 0.4, core.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(rest, one.String()) {
			t.Errorf("geoeval -experiment %s is not its section of %s:\n%s", e.Name, goldenFile, one.String())
			return
		}
		rest = rest[one.Len():]
	}
	if rest != "" {
		t.Errorf("%s has output no experiment prints:\n%s", goldenFile, rest)
	}
}
