package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"hoiho/internal/core"
	"hoiho/internal/eval"
	"hoiho/internal/geo"
	"hoiho/internal/geoloc"
	"hoiho/internal/itdk"
	"hoiho/internal/rtt"
	"hoiho/internal/synth"
)

// worldScale multiplies the preset's operator counts. At 10x the
// ipv4-aug2020 preset yields about 27k hostnames, 800 learned
// conventions and a 110 KB snapshot: large enough that the uniform
// stream overflows the 4096-entry result cache, small enough that
// generating and learning it fits in a few seconds of each run.
const worldScale = 10

// newWorld generates the seeded world every workload runs on, scaled
// the way eval.Run scales presets, with spoofing vantage points
// cleaned as geosynth and eval do.
func newWorld(seed int64, scale int) (*synth.World, error) {
	p, err := synth.ITDKPreset("ipv4-aug2020")
	if err != nil {
		return nil, err
	}
	p.Seed = seed
	p.Operators *= scale
	p.Tiny *= scale
	p.Noise *= scale
	w, err := synth.Generate(p)
	if err != nil {
		return nil, err
	}
	w.CleanSpoofers()
	return w, nil
}

// writeCorpus writes the files hoiho -corpus reads, with the same
// writers geosynth uses.
func writeCorpus(dir string, w *synth.World) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name  string
		write func(*bufio.Writer) error
	}{
		{"corpus.nodes", func(b *bufio.Writer) error { return itdk.WriteNodes(b, w.Corpus) }},
		{"corpus.names", func(b *bufio.Writer) error { return itdk.WriteNames(b, w.Corpus) }},
		{"corpus.geo", func(b *bufio.Writer) error { return itdk.WriteGeo(b, w.Corpus) }},
		{"rtt.matrix", func(b *bufio.Writer) error { return rtt.WriteMatrix(b, w.Matrix) }},
	}
	for _, f := range files {
		if err := writeFile(filepath.Join(dir, f.name), f.write); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, write func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	b := bufio.NewWriter(f)
	if err := write(b); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := b.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// hostnames returns every distinct hostname of the corpus, sorted, so
// host ids mean the same thing in every run of a seed.
func hostnames(w *synth.World) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range w.Corpus.Routers {
		for _, ifc := range r.Interfaces {
			if h := ifc.Hostname; h != "" && !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
		}
	}
	sort.Strings(out)
	return out
}

// compileSnapshot turns a conventions file into snapshot bytes, the way
// geosnap does, and returns the result it encodes.
func compileSnapshot(conventions []byte) (*core.Result, []byte, error) {
	res, err := core.ReadConventions(bytes.NewReader(conventions))
	if err != nil {
		return nil, nil, fmt.Errorf("read conventions: %w", err)
	}
	var buf bytes.Buffer
	if err := geoloc.Save(&buf, res, nil); err != nil {
		return nil, nil, fmt.Errorf("save snapshot: %w", err)
	}
	return res, buf.Bytes(), nil
}

// answer is the reference geolocation of one hostname: what every front
// end must serve for it, taken from geoloc.Index.Lookup on the snapshot
// the daemons serve.
type answer struct {
	located             bool
	suffix, hint        string
	city, country       string
	lat, long           float64
	txt                 []string // geoloc.AnswerStrings, the DNS TXT payload
	truthLat, truthLong float64  // ground truth, for hint scoring
	scored              bool     // counts toward hint_ppv / hint_tp_frac
}

// reference computes the expected answer of every hostname from a
// fresh index over the snapshot, and marks the hostnames figure 9 of
// the paper scores (eval.ComputeFig9Hoiho's selection: hint-bearing
// hostnames of suffixes with at least eval.Fig9MinHosts of them, with a
// router of known location).
func reference(w *synth.World, snap []byte, hosts []string) ([]answer, error) {
	ix, err := geoloc.Load(bytes.NewReader(snap), geoloc.Options{CacheSize: -1})
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	perSuffix := make(map[string]int)
	for _, suffix := range w.HintHostnames {
		perSuffix[suffix]++
	}
	hostRouter := make(map[string]string)
	for _, r := range w.Corpus.Routers {
		for _, ifc := range r.Interfaces {
			if ifc.Hostname != "" {
				hostRouter[ifc.Hostname] = r.ID
			}
		}
	}
	out := make([]answer, len(hosts))
	for i, h := range hosts {
		a := &out[i]
		if suffix, ok := w.HintHostnames[h]; ok && perSuffix[suffix] >= eval.Fig9MinHosts {
			if truth := w.TruthRouter[hostRouter[h]]; truth != nil {
				a.scored = true
				a.truthLat, a.truthLong = truth.Pos.Lat, truth.Pos.Long
			}
		}
		g, ok := ix.Lookup(h)
		if !ok || g.Loc == nil {
			continue
		}
		a.located = true
		a.suffix, a.hint = g.Suffix, g.Hint
		a.city, a.country = g.Loc.City, g.Loc.Country
		a.lat, a.long = g.Loc.Pos.Lat, g.Loc.Pos.Long
		a.txt = geoloc.AnswerStrings(g)
	}
	return out, nil
}

// hintScore tallies figure-9 outcomes over served answers: TP within
// 40 km of truth (eval.Within), FP beyond, FN unanswered.
type hintScore struct{ tp, fp, fn int }

func (s *hintScore) add(located bool, lat, long float64, a *answer) {
	if !a.scored {
		return
	}
	switch {
	case !located:
		s.fn++
	case eval.Within(latLong(lat, long), latLong(a.truthLat, a.truthLong)):
		s.tp++
	default:
		s.fp++
	}
}

func (s hintScore) ppv() float64    { return ratio(s.tp, s.tp+s.fp) }
func (s hintScore) tpFrac() float64 { return ratio(s.tp, s.tp+s.fp+s.fn) }

func latLong(lat, long float64) geo.LatLong { return geo.LatLong{Lat: lat, Long: long} }

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Stream kinds: which hostname each successive request asks about.
const (
	streamZipf    = "zipf"    // Zipf(s=1.1) over a seeded permutation
	streamUniform = "uniform" // uniform over all hostnames
)

// zipfS is the Zipf exponent of the http-zipf stream. With s=1.1 over
// ~27k hostnames about 89% of draws fall on the 4096 most popular,
// which the daemons' default result cache holds.
const zipfS = 1.1

// stream yields host ids. Each connection of a phase owns one stream,
// seeded by the workload seed and the connection index, so a traced
// run replays exactly the requests of the untraced one.
type stream struct {
	kind string
	n    int
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int32
}

func newStream(kind string, n int, seed int64, conn int) *stream {
	s := &stream{kind: kind, n: n, rng: rand.New(rand.NewSource(seed*1009 + int64(conn) + 1))}
	if kind == streamZipf {
		// The popularity ranking depends on the seed alone: every
		// connection shares it.
		s.perm = permutation(rand.New(rand.NewSource(seed)), n)
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(n-1))
	}
	return s
}

func permutation(rng *rand.Rand, n int) []int32 {
	out := make([]int32, n)
	for i, p := range rng.Perm(n) {
		out[i] = int32(p)
	}
	return out
}

func (s *stream) next() int {
	if s.kind == streamZipf {
		return int(s.perm[s.zipf.Uint64()])
	}
	return s.rng.Intn(s.n)
}
