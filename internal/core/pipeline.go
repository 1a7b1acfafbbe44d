package core

import (
	"fmt"
	"runtime"
	"sync"

	"hoiho/internal/itdk"
	"hoiho/internal/obs"
	"hoiho/internal/rex"
)

// groupResult is the outcome of running stages 2-5 over one suffix
// group. Workers produce these independently; the merge step folds them
// into a Result in suffix-sorted order.
type groupResult struct {
	// tagged holds every parseable hostname in the group with its
	// stage-2 apparent geohints (including hostnames with none). Run
	// drops it once the group is done; RunSuffix and TagSuffix return it.
	tagged []*Tagged
	// anyTag reports whether stage 2 tagged at least one hostname — a
	// group without a single apparent geohint cannot yield a convention
	// and short-circuits before candidate generation.
	anyTag bool
	// nc is the selected naming convention, nil when none qualified.
	nc *NamingConvention
	// taggedRouters lists router IDs stage 2 tagged; geolocated lists
	// router IDs a usable NC extracted a true-positive geohint from.
	taggedRouters []string
	geolocated    []string
}

// tagGroup runs stage 2 — apparent-geohint tagging — over one suffix
// group. Shared by runGroup and the exported TagSuffix.
func tagGroup(tg *tagger, group *itdk.SuffixGroup) *groupResult {
	gr := &groupResult{}
	for _, rh := range group.Hosts {
		t := tg.tag(rh)
		if t == nil {
			continue
		}
		gr.tagged = append(gr.tagged, t)
		if t.HasTags() {
			gr.anyTag = true
			gr.taggedRouters = append(gr.taggedRouters, rh.Router.ID)
		}
	}
	return gr
}

// runGroup executes stages 2-5 on one suffix group — the shared body of
// Run and RunSuffix. sp is the group's span (nil when tracing is off);
// stage counters accumulate in plain fields on the tagger and evalCtx
// and are reported only at stage boundaries, so the per-hostname paths
// cost nothing extra with tracing disabled.
func runGroup(tg *tagger, cfg Config, group *itdk.SuffixGroup, sp *obs.Span) *groupResult {
	// Stage 2: tag apparent geohints.
	s2 := sp.Child("stage2")
	tg.rttChecks = 0
	gr := tagGroup(tg, group)
	s2.Count("hostnames", int64(len(group.Hosts)))
	s2.Count("hostnames_parsed", int64(len(gr.tagged)))
	s2.Count("hostnames_tagged", int64(len(gr.taggedRouters)))
	s2.Count("rtt_checks", tg.rttChecks)
	s2.End()
	if !gr.anyTag {
		return gr
	}

	// Stage 3: build and evaluate candidate regexes; stage 4: learn
	// operator geohints from every qualifying candidate NC; re-select
	// with overrides in effect.
	s3 := sp.Child("learn")
	pool := generateCandidates(gr.tagged, MaxCandidates)
	e := newEvalCtx(tg.in, cfg)
	set, ev, learned := learnAndSelect(group.Suffix, pool, gr.tagged, e)
	s3.Count("candidates", int64(len(pool)))
	s3.Count("evaluations", e.evals)
	s3.Count("rtt_checks", e.rttChecks)
	s3.Count("learned_hints", int64(len(learned)))
	s3.End()
	if set == nil {
		return gr
	}

	// Stage 5: classify.
	nc := &NamingConvention{
		Suffix:  group.Suffix,
		Regexes: set,
		Learned: learned,
		Tally:   ev.Tally,
		Class:   Classify(ev.Tally, GoodPPV),
	}
	for _, r := range set {
		nc.noteAnnotations(r)
	}
	gr.nc = nc

	if nc.Class.Usable() {
		for hi, ho := range ev.PerHost {
			if ho.Outcome == OutcomeTP {
				gr.geolocated = append(gr.geolocated, gr.tagged[hi].RH.Router.ID)
			}
		}
	}
	return gr
}

// Run executes the five-stage pipeline over the assembled inputs and
// returns the learned naming conventions for every suffix with an
// apparent geohint.
//
// Suffix groups are independent (§5.2-§5.5 learn each registrable
// domain in isolation), so stages 2-5 run concurrently across groups on
// a pool of cfg.Workers goroutines. The merge happens in suffix-sorted
// order, so the Result is identical for any worker count.
func Run(in Inputs, cfg Config) (*Result, error) {
	if err := checkInputs(in); err != nil {
		return nil, err
	}
	groups := in.Corpus.GroupBySuffix(in.PSL)
	outcomes := make([]*groupResult, len(groups))

	root := cfg.Tracer.Start("run")
	root.Count("suffix_groups", int64(len(groups)))
	matchers0 := rex.MatchersCompiled()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			tg := &tagger{in: in}
			for i := range next {
				outcomes[i] = runTracedGroup(tg, cfg, groups[i], root, wid)
			}
		}(w + 1)
	}
	for i := range groups {
		next <- i
	}
	close(next)
	wg.Wait()

	root.Count("matchers_compiled", rex.MatchersCompiled()-matchers0)
	defer root.End()

	// Merge per-suffix outcomes. GroupBySuffix returns groups sorted by
	// suffix, so iterating outcomes in index order is deterministic no
	// matter which worker computed each slot.
	res := &Result{NCs: make(map[string]*NamingConvention)}
	routersWithGeohint := make(map[string]bool)
	routersGeolocated := make(map[string]bool)
	for _, gr := range outcomes {
		if !gr.anyTag {
			continue
		}
		res.SuffixesWithGeohint++
		for _, id := range gr.taggedRouters {
			routersWithGeohint[id] = true
		}
		if gr.nc == nil {
			continue
		}
		res.NCs[gr.nc.Suffix] = gr.nc
		for _, id := range gr.geolocated {
			routersGeolocated[id] = true
			// A hostname a learned hint geolocates carries an apparent
			// geohint even when stage 2's dictionary pass could not
			// tag it.
			routersWithGeohint[id] = true
		}
	}
	res.RoutersWithGeohint = len(routersWithGeohint)
	res.RoutersGeolocated = len(routersGeolocated)
	return res, nil
}

// runTracedGroup wraps runGroup in its per-suffix span, attributed to
// worker slot wid. With tracing disabled the Child/SetKey/SetWorker/End
// calls are nil no-ops. It drops the group's stage-2 tags, which Run's
// merge never reads, so each group's are garbage once the group is done
// rather than held until every group is.
func runTracedGroup(tg *tagger, cfg Config, group *itdk.SuffixGroup, root *obs.Span, wid int) *groupResult {
	sp := root.Child("group")
	sp.SetKey(group.Suffix)
	sp.SetWorker(wid)
	gr := runGroup(tg, cfg, group, sp)
	sp.End()
	gr.tagged = nil
	return gr
}

// RunSuffix runs stages 2-5 for a single suffix group already extracted
// from a corpus — the unit the examples and unit tests exercise. It
// shares runGroup with Run, so a suffix where stage 2 tags no hostname
// short-circuits to a nil convention exactly as Run would skip it.
func RunSuffix(in Inputs, cfg Config, suffix string) (*NamingConvention, []*Tagged, error) {
	group, err := findGroup(in, suffix)
	if err != nil {
		return nil, nil, err
	}
	sp := cfg.Tracer.Start("group")
	sp.SetKey(group.Suffix)
	gr := runGroup(&tagger{in: in}, cfg, group, sp)
	sp.End()
	return gr.nc, gr.tagged, nil
}

// TagSuffix runs stage 2 alone — parse and apparent-geohint tagging —
// over a single suffix group, returning every parseable hostname with
// its tags. It exists so benchmarks and diagnostics can measure the
// tagging stage in isolation from regex learning. Stage 2 reads no
// setting of cfg; the parameter stays because the benchmark module
// (perfbench) times TagSuffix with the configuration it passes to
// RunSuffix.
func TagSuffix(in Inputs, cfg Config, suffix string) ([]*Tagged, error) {
	group, err := findGroup(in, suffix)
	if err != nil {
		return nil, err
	}
	return tagGroup(&tagger{in: in}, group).tagged, nil
}

// checkInputs reports an error when a stage-1 source is missing.
func checkInputs(in Inputs) error {
	if in.Dict == nil || in.PSL == nil || in.Corpus == nil || in.RTT == nil {
		return fmt.Errorf("core: incomplete inputs")
	}
	return nil
}

// findGroup checks the inputs and returns the corpus's suffix group
// for suffix.
func findGroup(in Inputs, suffix string) (*itdk.SuffixGroup, error) {
	if err := checkInputs(in); err != nil {
		return nil, err
	}
	for _, group := range in.Corpus.GroupBySuffix(in.PSL) {
		if group.Suffix == suffix {
			return group, nil
		}
	}
	return nil, fmt.Errorf("core: suffix %q not in corpus", suffix)
}
