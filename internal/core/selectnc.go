package core

import (
	"sort"

	"hoiho/internal/geodict"
	"hoiho/internal/rex"
)

// The stage-5 thresholds (paper §5.5 and appendix A).
const (
	// MinUniqueHints is the number of distinct RTT-consistent geohints a
	// usable NC, and each regex of a combined NC, must extract (paper
	// §5.5: three).
	MinUniqueHints = 3
	// GoodPPV and PromisingPPV classify NCs (paper §5.5: 0.90 / 0.80).
	GoodPPV      = 0.90
	PromisingPPV = 0.80
	// NCSlackTP is the TP slack when preferring an NC with fewer regexes
	// (paper §5.5: three).
	NCSlackTP = 3
	// SetPPVSlack is how much lower a combined NC's PPV may be than the
	// PPV of the regex it grew from (paper appendix A: 10%).
	SetPPVSlack = 0.10
)

// rankedRegex pairs a candidate regex with its standalone evaluation.
type rankedRegex struct {
	re   *rex.Regex
	eval ncEval
}

// ncCandidate is one regex set the set-building phase produced, with
// its evaluation.
type ncCandidate struct {
	set  []*rex.Regex
	eval ncEval
}

// selectNC implements phase 4 of appendix A and stage 5 (§5.5): evaluate
// every candidate regex, rank by ATP, greedily grow regex sets, and
// select the final NC for the suffix. It also returns the other
// candidate NCs considered — stage 4 learns operator geohints from
// every qualifying NC, not just the winner. Returns nil when no
// candidate extracts anything useful.
func selectNC(pool []*rex.Regex, tagged []*Tagged, e *evalCtx) ([]*rex.Regex, ncEval, []ncCandidate) {
	if len(pool) == 0 || len(tagged) == 0 {
		return nil, ncEval{}, nil
	}

	// Evaluate singles; discard regexes that never produced a TP.
	var ranked []rankedRegex
	for _, r := range pool {
		ev := e.evaluateSet([]*rex.Regex{r}, tagged)
		if ev.Tally.TP == 0 {
			continue
		}
		ranked = append(ranked, rankedRegex{re: r, eval: ev})
	}
	if len(ranked) == 0 {
		return nil, ncEval{}, nil
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		ai, aj := ranked[i].eval.Tally.ATP(), ranked[j].eval.Tally.ATP()
		if ai != aj {
			return ai > aj
		}
		ti, tj := ranked[i].eval.Tally.TP, ranked[j].eval.Tally.TP
		if ti != tj {
			return ti > tj
		}
		return ranked[i].re.String() < ranked[j].re.String()
	})
	// Bound the combinatorial stage.
	const maxRanked = 64
	if len(ranked) > maxRanked {
		ranked = ranked[:maxRanked]
	}

	// Grow a set from each of the top few starting points.
	const maxStarts = 8
	starts := len(ranked)
	if starts > maxStarts {
		starts = maxStarts
	}
	var candidates []ncCandidate
	for s := 0; s < starts; s++ {
		set := []*rex.Regex{ranked[s].re}
		ev := ranked[s].eval
		startPPV := ev.Tally.PPV()
		for {
			improved := false
			for _, rr := range ranked {
				if inSet(set, rr.re) {
					continue
				}
				trial := append(append([]*rex.Regex(nil), set...), rr.re)
				tev := e.evaluateSet(trial, tagged)
				if !acceptSet(tev, ev, startPPV) {
					continue
				}
				set, ev = trial, tev
				improved = true
			}
			if !improved {
				break
			}
		}
		candidates = append(candidates, ncCandidate{set: set, eval: ev})
	}
	// Stage 4 and the geolocated list read a candidate's per-host
	// outcomes; derive them now, before stage 4 installs any override.
	for i := range candidates {
		candidates[i].eval.PerHost = e.detail(candidates[i].set, tagged)
	}

	// Stage 5: rank candidate NCs by ATP; prefer an NC with fewer
	// regexes when it is within NCSlackTP true positives of the best.
	sort.SliceStable(candidates, func(i, j int) bool {
		ai, aj := candidates[i].eval.Tally.ATP(), candidates[j].eval.Tally.ATP()
		if ai != aj {
			return ai > aj
		}
		return len(candidates[i].set) < len(candidates[j].set)
	})
	best := candidates[0]
	for _, c := range candidates[1:] {
		if len(c.set) < len(best.set) &&
			c.eval.Tally.TP >= best.eval.Tally.TP-NCSlackTP {
			best = c
		}
	}
	return best.set, best.eval, candidates
}

// learnAndSelect runs selection, then stage 4 over every qualifying
// candidate NC (the paper learns from all NCs with at least three
// unique hints and PPV above the threshold, not only the winner), and —
// when anything was learned — re-selects with the learned overrides in
// effect, since previously-penalised regexes may now rank best.
func learnAndSelect(suffix string, pool []*rex.Regex, tagged []*Tagged, e *evalCtx) ([]*rex.Regex, ncEval, []*LearnedHint) {
	set, ev, candidates := selectNC(pool, tagged, e)
	if set == nil || !e.cfg.LearnHints {
		return set, ev, nil
	}
	var learned []*LearnedHint
	for _, c := range candidates {
		learned = append(learned, e.learnHints(suffix, c.eval, tagged)...)
	}
	if len(learned) == 0 {
		return set, ev, nil
	}
	set, ev, _ = selectNC(pool, tagged, e)
	// Keep only the hints the final convention can actually extract.
	types := make(map[geodict.HintType]bool)
	for _, r := range set {
		types[r.Hint] = true
	}
	kept := learned[:0]
	for _, lh := range learned {
		if types[lh.Type] {
			kept = append(kept, lh)
		}
	}
	return set, ev, kept
}

// acceptSet implements the appendix-A inclusion test: the expanded set
// must raise ATP, every member must extract at least MinUniqueHints
// unique geohints, and the PPV must not fall more than SetPPVSlack below
// the starting regex's PPV.
func acceptSet(trial, cur ncEval, startPPV float64) bool {
	if trial.Tally.ATP() <= cur.Tally.ATP() {
		return false
	}
	for _, pr := range trial.PerRegex {
		if pr.UniqueHints < MinUniqueHints {
			return false
		}
	}
	return trial.Tally.PPV() >= startPPV-SetPPVSlack
}

func inSet(set []*rex.Regex, r *rex.Regex) bool {
	for _, s := range set {
		if s.Equal(r) {
			return true
		}
	}
	return false
}

// Classify applies the §5.5 thresholds to a convention's tally: good
// from goodPPV up, promising from PromisingPPV up, and poor below that
// or when it extracts fewer than MinUniqueHints unique geohints. The
// pipeline classifies at GoodPPV; the threshold is a parameter so an
// ablation can reclassify learned conventions without re-learning.
func Classify(t Tally, goodPPV float64) Classification {
	if t.UniqueHints >= MinUniqueHints {
		switch {
		case t.PPV() >= goodPPV:
			return Good
		case t.PPV() >= PromisingPPV:
			return Promising
		}
	}
	return Poor
}
