package geoloc

import (
	"io"
	"os"
	"path/filepath"

	"hoiho/internal/core"
	"hoiho/internal/geodict"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/rtt"
)

// LoadConventions reads a published conventions file (the output of
// `hoiho -write-nc`) into a Result ready for New.
func LoadConventions(path string) (*core.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadConventions(f)
}

// WriteAtomic writes a file that a reloading daemon may open at any
// moment, such as a conventions file or a snapshot: write fills a temp
// file in the destination directory, which is then renamed into place,
// so a reader opens either the old complete file or the new complete
// file, never a prefix. The file gets mode 0644, as a published
// artifact. It returns the number of bytes written.
func WriteAtomic(path string, write func(io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*")
	if err != nil {
		return 0, err
	}
	//lint:ignore droppederr best-effort cleanup; a no-op after the rename succeeds, and the temp dir entry is harmless if it fails
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return 0, err
	}
	info, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// LoadInputs assembles the pipeline's stage-1 inputs from a corpus
// directory containing corpus.nodes, corpus.names, and rtt.matrix
// (corpus.geo is optional and ignored by learning), with the embedded
// default dictionary and public suffix list.
//
// The matrix holds only what learning reads: the ping rows of routers
// with a hostname (rtt.ReadPings). core.Run, core.DetectStale and
// tbg.BuildAnchors need no more. tbg's geolocation of other routers,
// drop's trace RTTs and eval need the full rtt.ReadMatrix.
func LoadInputs(dir string) (core.Inputs, error) {
	var in core.Inputs
	dict, err := geodict.Default()
	if err != nil {
		return in, err
	}
	list, err := psl.Default()
	if err != nil {
		return in, err
	}
	corpus, err := readCorpus(dir)
	if err != nil {
		return in, err
	}
	mf, err := os.Open(filepath.Join(dir, "rtt.matrix"))
	if err != nil {
		return in, err
	}
	defer mf.Close()
	named := make(map[string]bool)
	for _, r := range corpus.Routers {
		if r.HasHostname() {
			named[r.ID] = true
		}
	}
	matrix, err := rtt.ReadPings(mf, named)
	if err != nil {
		return in, err
	}
	return core.Inputs{Dict: dict, PSL: list, Corpus: corpus, RTT: matrix}, nil
}

// readCorpus concatenates the nodes and names files (geo is optional).
func readCorpus(dir string) (*itdk.Corpus, error) {
	var readers []io.Reader
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			//lint:ignore droppederr every closer is an os.Open handle; closing a read-only fd cannot lose data
			c.Close()
		}
	}()
	for _, name := range []string{"corpus.nodes", "corpus.names", "corpus.geo"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			if name == "corpus.geo" && os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		closers = append(closers, f)
		readers = append(readers, f)
	}
	return itdk.ReadCorpus(io.MultiReader(readers...), filepath.Base(dir), false)
}
