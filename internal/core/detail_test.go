package core

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"hoiho/internal/geodict"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/rtt"
)

// goldenInputs loads the committed golden corpus the way
// geoloc.LoadInputs does (geoloc imports core, so core's tests cannot
// call it).
func goldenInputs(t *testing.T) Inputs {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "golden")
	var rs []io.Reader
	for _, name := range []string{"corpus.nodes", "corpus.names", "corpus.geo"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rs = append(rs, f)
	}
	corpus, err := itdk.ReadCorpus(io.MultiReader(rs...), "golden", false)
	if err != nil {
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, r := range corpus.Routers {
		if r.HasHostname() {
			named[r.ID] = true
		}
	}
	mf, err := os.Open(filepath.Join(dir, "rtt.matrix"))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	matrix, err := rtt.ReadPings(mf, named)
	if err != nil {
		t.Fatal(err)
	}
	dict, err := geodict.Default()
	if err != nil {
		t.Fatal(err)
	}
	list, err := psl.Default()
	if err != nil {
		t.Fatal(err)
	}
	return Inputs{Dict: dict, PSL: list, Corpus: corpus, RTT: matrix}
}

// TestCandidatePerHost checks the detail pass over every suffix group of
// the golden corpus, in both of learnAndSelect's selections (before and
// after stage 4 installs overrides): each candidate NC selectNC returns
// carries per-host rows equal, row for row, to a full evaluation of its
// set made at the same point, with its Tally and PerRegex unchanged,
// while single-regex and trial-set evaluations carry no rows. The
// detail pass must leave the evaluations and rtt_checks counters alone.
func TestCandidatePerHost(t *testing.T) {
	in := goldenInputs(t)
	cfg := DefaultConfig()
	tg := &tagger{in: in}
	checked := 0
	for _, group := range in.Corpus.GroupBySuffix(in.PSL) {
		gr := tagGroup(tg, group)
		if !gr.anyTag {
			continue
		}
		pool := generateCandidates(gr.tagged, MaxCandidates)
		e := newEvalCtx(in, cfg)
		for round := 0; round < 2; round++ {
			_, _, cands := selectNC(pool, gr.tagged, e)
			for _, c := range cands {
				evals, rttChecks := e.evals, e.rttChecks
				e.detail(c.set, gr.tagged)
				if e.evals != evals || e.rttChecks != rttChecks {
					t.Errorf("%s: detail pass moved the counters: evaluations %d -> %d, rtt_checks %d -> %d",
						group.Suffix, evals, e.evals, rttChecks, e.rttChecks)
				}
				full := e.evaluate(c.set, gr.tagged, make([]hostOutcome, len(gr.tagged)))
				if len(c.eval.PerHost) != len(gr.tagged) {
					t.Fatalf("%s round %d: candidate %v has %d rows for %d hostnames",
						group.Suffix, round, c.set, len(c.eval.PerHost), len(gr.tagged))
				}
				for hi := range full.PerHost {
					if c.eval.PerHost[hi] != full.PerHost[hi] {
						t.Errorf("%s round %d: %s: row %+v, full evaluation %+v", group.Suffix, round,
							gr.tagged[hi].H.Full, c.eval.PerHost[hi], full.PerHost[hi])
					}
				}
				if c.eval.Tally != full.Tally || !reflect.DeepEqual(c.eval.PerRegex, full.PerRegex) {
					t.Errorf("%s round %d: candidate %v tally %+v per-regex %+v, full evaluation %+v %+v",
						group.Suffix, round, c.set, c.eval.Tally, c.eval.PerRegex, full.Tally, full.PerRegex)
				}
				// The trial sets that grew this candidate, and each of
				// its members alone, score without rows.
				for k := 1; k <= len(c.set); k++ {
					if ev := e.evaluateSet(c.set[:k], gr.tagged); ev.PerHost != nil {
						t.Errorf("%s: trial set %v carries per-host rows", group.Suffix, c.set[:k])
					}
					if ev := e.evaluateSet(c.set[k-1:k], gr.tagged); ev.PerHost != nil {
						t.Errorf("%s: single %v carries per-host rows", group.Suffix, c.set[k-1])
					}
				}
				checked++
			}
			if round == 0 {
				for _, c := range cands {
					e.learnHints(group.Suffix, c.eval, gr.tagged)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("golden corpus produced no candidate NCs")
	}
}

// TestEvaluateSetAllocatesNoRows measures what a set evaluation
// allocates once its memos are warm: less than one per-host row per
// hostname, so no single-regex or trial-set evaluation pays for rows.
func TestEvaluateSetAllocatesNoRows(t *testing.T) {
	in := goldenInputs(t)
	cfg := DefaultConfig()
	tg := &tagger{in: in}
	var largest *groupResult
	for _, group := range in.Corpus.GroupBySuffix(in.PSL) {
		if gr := tagGroup(tg, group); gr.anyTag && (largest == nil || len(gr.tagged) > len(largest.tagged)) {
			largest = gr
		}
	}
	pool := generateCandidates(largest.tagged, MaxCandidates)
	e := newEvalCtx(in, cfg)
	_, _, cands := selectNC(pool, largest.tagged, e)
	rows := uint64(len(largest.tagged)) * uint64(unsafe.Sizeof(hostOutcome{}))
	for _, c := range cands {
		for i := 0; i < 2; i++ { // warm the match memo
			e.evaluateSet(c.set, largest.tagged)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.evaluateSet(c.set, largest.tagged)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= rows {
			t.Errorf("evaluating %v over %d hostnames allocated %d bytes, at least the %d of per-host rows",
				c.set, len(largest.tagged), got, rows)
		}
	}
}
