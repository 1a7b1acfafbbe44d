package geoloc

// The unified Source API: every command that stands up conventions —
// hoiho, geoserve, geodns, geosnap, and geoeval for its learning flags —
// used to carry its own copy of the -nc/-corpus/-no-learn/-workers flag
// cluster and the resolution logic behind it. Source is that cluster,
// once: a value the command registers onto its FlagSet, then resolves
// into a compiled Index (plus the Result it came from and, for corpus
// sources, the loaded inputs). Snapshots (-snapshot) are a first-class
// input alongside published conventions and corpus learning.

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hoiho/internal/core"
	"hoiho/internal/obs"
)

// Kind identifies which input a Source resolves from.
type Kind int

const (
	// FromNone means no input flag was set.
	FromNone Kind = iota
	// FromSnapshot loads a compiled-index snapshot (see Save/Load).
	FromSnapshot
	// FromConventions reads a published conventions file (hoiho -write-nc).
	FromConventions
	// FromCorpus learns conventions from an ITDK-shaped corpus directory.
	FromCorpus
)

// String names the kind the way its flag is spelled.
func (k Kind) String() string {
	switch k {
	case FromSnapshot:
		return "snapshot"
	case FromConventions:
		return "nc"
	case FromCorpus:
		return "corpus"
	}
	return "none"
}

// Source is the shared input configuration for conventions: exactly one
// of Snapshot, NC, or Corpus names where they come from, and NoLearn /
// Workers configure the learning run when the input is a corpus. Field
// values present before RegisterFlags become the flag defaults.
type Source struct {
	// Snapshot is a compiled-index snapshot file (produced by geosnap).
	Snapshot string
	// NC is a published conventions file (produced by hoiho -write-nc).
	NC string
	// Corpus is a directory with corpus.nodes, corpus.names, rtt.matrix.
	Corpus string
	// NoLearn disables stage-4 custom geohint learning (corpus only).
	NoLearn bool
	// Workers is the suffix-group learning concurrency (corpus only;
	// 0 = GOMAXPROCS, 1 = sequential; results are identical).
	Workers int
}

// RegisterFlags registers the full input cluster — -snapshot, -nc,
// -corpus, and the learning flags — on fs.
func (s *Source) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Snapshot, "snapshot", s.Snapshot,
		"compiled-index snapshot file to serve (produced by geosnap)")
	fs.StringVar(&s.NC, "nc", s.NC,
		"published conventions file (produced by hoiho -write-nc)")
	fs.StringVar(&s.Corpus, "corpus", s.Corpus,
		"directory with corpus.nodes/corpus.names/rtt.matrix to learn from")
	s.RegisterLearnFlags(fs)
}

// RegisterLearnFlags registers only the learning-configuration flags
// (-no-learn, -workers), for commands that generate their own corpora.
func (s *Source) RegisterLearnFlags(fs *flag.FlagSet) {
	fs.BoolVar(&s.NoLearn, "no-learn", s.NoLearn,
		"disable stage-4 custom geohint learning (with -corpus)")
	fs.IntVar(&s.Workers, "workers", s.Workers,
		"suffix groups learned concurrently (0 = GOMAXPROCS, 1 = sequential; results are identical)")
}

// Kind reports which input the Source names, or an error when none or
// more than one is set — the shared contract the per-command checks
// used to duplicate.
func (s *Source) Kind() (Kind, error) {
	var set []string
	kind := FromNone
	if s.Snapshot != "" {
		set, kind = append(set, "-snapshot"), FromSnapshot
	}
	if s.NC != "" {
		set, kind = append(set, "-nc"), FromConventions
	}
	if s.Corpus != "" {
		set, kind = append(set, "-corpus"), FromCorpus
	}
	// These errors surface directly as CLI usage messages, so they name
	// flags, not this package.
	switch len(set) {
	case 0:
		return FromNone, fmt.Errorf("one of -snapshot, -nc, or -corpus is required")
	case 1:
		return kind, nil
	}
	return FromNone, fmt.Errorf("%s are mutually exclusive", strings.Join(set, ", "))
}

// Describe renders the source for log lines, e.g. "snapshot ix.snap".
func (s *Source) Describe() string {
	kind, err := s.Kind()
	if err != nil {
		return "unresolved source"
	}
	return kind.String() + " " + s.path()
}

func (s *Source) path() string {
	switch {
	case s.Snapshot != "":
		return s.Snapshot
	case s.NC != "":
		return s.NC
	}
	return s.Corpus
}

// CoreConfig builds the pipeline configuration a corpus resolution
// runs with: defaults plus the Source's learning flags and the tracer.
func (s *Source) CoreConfig(tracer *obs.Tracer) core.Config {
	cfg := core.DefaultConfig()
	cfg.LearnHints = !s.NoLearn
	cfg.Workers = s.Workers
	cfg.Tracer = tracer
	return cfg
}

// Resolved is the outcome of Source.Resolve: the compiled serving
// Index, the Result it was built from (snapshot metadata totals, or the
// live pipeline output), and — for corpus sources only — the loaded
// pipeline inputs, for callers that post-process the corpus (-names,
// -asn, benchmarks).
type Resolved struct {
	Index  *Index
	Result *core.Result
	Inputs *core.Inputs
}

// Resolve obtains conventions from the configured input and compiles
// them into an Index with opts. It is the single entry point behind
// every command's cold start, and geoserve re-invokes it on each
// reload, so a Source must stay valid for the process lifetime (the
// named files are re-read every call).
func (s *Source) Resolve(opts Options) (*Resolved, error) {
	kind, err := s.Kind()
	if err != nil {
		return nil, err
	}
	r := &Resolved{}
	switch kind {
	case FromSnapshot:
		f, err := os.Open(s.Snapshot)
		if err != nil {
			return nil, err
		}
		r.Result, err = ReadSnapshot(f, opts.Tracer)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Snapshot, err)
		}
	case FromConventions:
		if r.Result, err = LoadConventions(s.NC); err != nil {
			return nil, err
		}
	case FromCorpus:
		in, err := LoadInputs(s.Corpus)
		if err != nil {
			return nil, err
		}
		if r.Result, err = core.Run(in, s.CoreConfig(opts.Tracer)); err != nil {
			return nil, err
		}
		r.Inputs = &in
	}
	if r.Index, err = New(r.Result, opts); err != nil {
		return nil, err
	}
	return r, nil
}
