package core

import (
	"sort"

	"hoiho/internal/geodict"
	"hoiho/internal/rex"
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
func selectNC(pool []*rex.Regex, tagged []*Tagged, e *evalCtx, cfg Config) ([]*rex.Regex, ncEval, []ncCandidate) {
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
				if !acceptSet(tev, ev, startPPV, cfg) {
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
			c.eval.Tally.TP >= best.eval.Tally.TP-cfg.NCSlackTP {
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
func learnAndSelect(suffix string, pool []*rex.Regex, tagged []*Tagged, e *evalCtx, cfg Config) ([]*rex.Regex, ncEval, []*LearnedHint) {
	set, ev, candidates := selectNC(pool, tagged, e, cfg)
	if set == nil || !cfg.LearnHints {
		return set, ev, nil
	}
	var learned []*LearnedHint
	for _, c := range candidates {
		learned = append(learned, e.learnHints(suffix, c.eval, tagged, cfg)...)
	}
	if len(learned) == 0 {
		return set, ev, nil
	}
	set, ev, _ = selectNC(pool, tagged, e, cfg)
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
func acceptSet(trial, cur ncEval, startPPV float64, cfg Config) bool {
	if trial.Tally.ATP() <= cur.Tally.ATP() {
		return false
	}
	for _, pr := range trial.PerRegex {
		if pr.UniqueHints < cfg.MinUniqueHints {
			return false
		}
	}
	return trial.Tally.PPV() >= startPPV-cfg.SetPPVSlack
}

func inSet(set []*rex.Regex, r *rex.Regex) bool {
	for _, s := range set {
		if s.Equal(r) {
			return true
		}
	}
	return false
}

// classify applies the §5.5 thresholds.
func classify(t Tally, cfg Config) Classification {
	if t.UniqueHints >= cfg.MinUniqueHints {
		switch {
		case t.PPV() >= cfg.GoodPPV:
			return Good
		case t.PPV() >= cfg.PromisingPPV:
			return Promising
		}
	}
	return Poor
}
