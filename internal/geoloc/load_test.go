package geoloc

import (
	"bytes"
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
