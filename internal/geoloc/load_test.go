package geoloc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/itdk"
	"hoiho/internal/rtt"
	"hoiho/internal/synth"
	"hoiho/internal/tbg"
)

// TestLoadInputsLearnsAsFullMatrix: learning over LoadInputs, whose
// matrix holds only the ping rows of routers with a hostname, writes
// byte for byte what learning over the full ReadMatrix writes: the
// conventions file, DetectStale's report and tbg.BuildAnchors' anchors,
// with one worker and with the default, on the golden corpus and on a
// 1x ipv4-aug2020 corpus.
func TestLoadInputsLearnsAsFullMatrix(t *testing.T) {
	dirs := []string{filepath.Join("..", "..", "testdata", "golden")}
	if !testing.Short() {
		dirs = append(dirs, writePresetCorpus(t, "ipv4-aug2020"))
	}
	for _, dir := range dirs {
		pruned, err := LoadInputs(dir)
		if err != nil {
			t.Fatal(err)
		}
		full := pruned
		f, err := os.Open(filepath.Join(dir, "rtt.matrix"))
		if err != nil {
			t.Fatal(err)
		}
		full.RTT, err = rtt.ReadMatrix(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 0} {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			got, want := learnedText(t, pruned, cfg), learnedText(t, full, cfg)
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %d workers: learning over LoadInputs differs from learning over ReadMatrix (%d bytes, %d bytes)",
					dir, workers, len(got), len(want))
			}
			if !bytes.Contains(got, []byte("\nanchor ")) {
				t.Errorf("%s: no anchors to compare", dir)
			}
		}
	}
}

// learnedText renders what learning over in writes: the conventions file,
// then each stale hostname and each anchor.
func learnedText(t *testing.T, in core.Inputs, cfg core.Config) []byte {
	t.Helper()
	res, err := core.Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteConventions(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, s := range core.DetectStale(in, res) {
		fmt.Fprintf(&buf, "\nstale %s %s %s %s", s.RouterID, s.Hostname, s.Hint, s.Loc)
		if s.Consensus != nil {
			fmt.Fprintf(&buf, " consensus %s x%d", s.Consensus, s.ConsensusCount)
		}
	}
	anchors := tbg.BuildAnchors(in, res, in.PSL)
	ids := make([]string, 0, len(anchors))
	for id := range anchors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&buf, "\nanchor %s %s %v", id, anchors[id], anchors[id].Pos)
	}
	return buf.Bytes()
}

// writePresetCorpus writes the corpus and matrix files of a preset's
// world, spoofers cleaned, as geosynth does, to a new directory.
func writePresetCorpus(t *testing.T, preset string) string {
	t.Helper()
	p, err := synth.ITDKPreset(preset)
	if err != nil {
		t.Fatal(err)
	}
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	w.CleanSpoofers()
	dir := t.TempDir()
	for _, f := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"corpus.nodes", func(b io.Writer) error { return itdk.WriteNodes(b, w.Corpus) }},
		{"corpus.names", func(b io.Writer) error { return itdk.WriteNames(b, w.Corpus) }},
		{"corpus.geo", func(b io.Writer) error { return itdk.WriteGeo(b, w.Corpus) }},
		{"rtt.matrix", func(b io.Writer) error { return rtt.WriteMatrix(b, w.Matrix) }},
	} {
		var buf bytes.Buffer
		if err := f.write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestWriteAtomic: a failed write leaves the destination and its
// directory as they were; a successful one replaces the file whole,
// with mode 0644, and reports its size.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "conventions.txt")
	if err := os.WriteFile(dst, []byte("old\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("disk full")
	if _, err := WriteAtomic(dst, func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial"); err != nil {
			return err
		}
		return failed
	}); !errors.Is(err, failed) {
		t.Fatalf("WriteAtomic = %v, want the write's own error", err)
	}
	check := func(want string) {
		t.Helper()
		got, err := os.ReadFile(dst)
		if err != nil || string(got) != want {
			t.Fatalf("destination = %q, %v; want %q", got, err, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 {
			t.Fatalf("directory holds %v, %v; want the destination alone", entries, err)
		}
	}
	check("old\n")

	n, err := WriteAtomic(dst, func(w io.Writer) error {
		_, err := io.WriteString(w, "new conventions\n")
		return err
	})
	if err != nil || n != int64(len("new conventions\n")) {
		t.Fatalf("WriteAtomic = %d, %v", n, err)
	}
	check("new conventions\n")
	if fi, err := os.Stat(dst); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, %v; want 0644", fi.Mode().Perm(), err)
	}
}
