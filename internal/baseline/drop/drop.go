// Package drop reimplements the DRoP technique of Huffaker et al.
// (CCR 2014) as the paper describes it (§3.3, fig. 2), preserving the
// documented design limitations that Hoiho addresses:
//
//   - rules assume the geohint always sits at the same position relative
//     to the END of the hostname, as an entire punctuation-delimited
//     segment — a segment with trailing digits ("lhr15") does not match;
//   - a rule is kept when a simple MAJORITY (>50%) of its extractions
//     are consistent with training RTTs;
//   - the only RTTs available are those observed in the traceroutes that
//     built the topology — typically from a single, distant vantage
//     point — so the consistency test constrains locations only to
//     within a continent;
//   - dictionaries are used verbatim: DRoP never learns that an operator
//     repurposed or invented a geohint.
package drop

import (
	"sort"
	"strings"

	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/rtt"
)

// Rule is a learned DRoP rule: for a suffix, the geohint is the whole
// segment PosFromEnd positions before the suffix, interpreted with the
// Type dictionary.
type Rule struct {
	Suffix     string
	PosFromEnd int // 1 = segment immediately before the suffix
	Type       geodict.HintType

	// Consistency is the fraction of training extractions that were
	// consistent with traceroute RTTs (kept when > 0.5).
	Consistency float64
	Samples     int
}

// RuleSet maps suffixes to their learned rule.
type RuleSet struct {
	Rules map[string]*Rule
}

// segments splits the hostname prefix into the punctuation-delimited
// segments DRoP indexes, rightmost first.
func segments(host, suffix string) []string {
	host = strings.ToLower(host)
	suffix = strings.ToLower(suffix)
	if !strings.HasSuffix(host, "."+suffix) {
		return nil
	}
	prefix := strings.TrimSuffix(host, "."+suffix)
	segs := strings.FieldsFunc(prefix, func(r rune) bool { return r == '.' || r == '-' })
	// Reverse so index 0 is the segment nearest the suffix.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return segs
}

// lookup interprets a whole segment with one dictionary. DRoP requires
// the segment to be exactly the code, with no digit stripping, or a
// place name of at least four letters.
func lookup(d *geodict.Dictionary, seg string, t geodict.HintType) []*geodict.Location {
	switch n := len(seg); {
	case t == geodict.HintIATA && n == 3, t == geodict.HintLocode && n == 5,
		t == geodict.HintCLLI && n == 6, t == geodict.HintPlace && n >= 4:
		return d.Locations(t, seg)
	}
	return nil
}

// hintTypes is the order DRoP tries dictionaries.
var hintTypes = []geodict.HintType{
	geodict.HintIATA, geodict.HintCLLI, geodict.HintLocode, geodict.HintPlace,
}

// Learn builds DRoP rules for every suffix in the corpus using only the
// traceroute-observed RTTs in the matrix (the paper's critique: the
// observing VP is rarely the closest, so these constraints are loose).
func Learn(corpus *itdk.Corpus, list *psl.List, dict *geodict.Dictionary, m *rtt.Matrix) *RuleSet {
	rs := &RuleSet{Rules: make(map[string]*Rule)}
	for _, group := range corpus.GroupBySuffix(list) {
		rule := learnSuffix(group, dict, m)
		if rule != nil {
			rs.Rules[group.Suffix] = rule
		}
	}
	return rs
}

func learnSuffix(group *itdk.SuffixGroup, dict *geodict.Dictionary, m *rtt.Matrix) *Rule {
	type key struct {
		pos int
		t   geodict.HintType
	}
	consistent := make(map[key]int)
	total := make(map[key]int)

	for _, rh := range group.Hosts {
		segs := segments(rh.Hostname, rh.Suffix)
		obs := m.TraceMeasurements(rh.Router.ID)
		for pos, seg := range segs {
			for _, t := range hintTypes {
				locs := lookup(dict, seg, t)
				if len(locs) == 0 {
					continue
				}
				k := key{pos + 1, t}
				total[k]++
				if traceConsistent(obs, locs) {
					consistent[k]++
				}
			}
		}
	}

	// Pick the (position, type) with the most consistent extractions;
	// keep it if a majority of its extractions were consistent.
	var best *Rule
	keys := make([]key, 0, len(total))
	for k := range total {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if consistent[keys[i]] != consistent[keys[j]] {
			return consistent[keys[i]] > consistent[keys[j]]
		}
		if keys[i].pos != keys[j].pos {
			return keys[i].pos < keys[j].pos
		}
		return keys[i].t < keys[j].t
	})
	for _, k := range keys {
		frac := float64(consistent[k]) / float64(total[k])
		if frac > 0.5 && consistent[k] >= 2 {
			best = &Rule{
				Suffix: group.Suffix, PosFromEnd: k.pos, Type: k.t,
				Consistency: frac, Samples: total[k],
			}
			break
		}
	}
	return best
}

// traceConsistent applies DRoP's loose constraint: every traceroute-
// observed RTT must be feasible for at least one interpretation. With
// trace RTTs of tens of milliseconds this only constrains locations to
// within a continent.
func traceConsistent(obs []rtt.Measurement, locs []*geodict.Location) bool {
	if len(obs) == 0 {
		return false
	}
	for _, o := range obs {
		ok := false
		for _, loc := range locs {
			if geo.RTTConsistent(o.VP.Pos, loc.Pos, o.Sample.RTTms, 1.0) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Geolocate applies the suffix's rule to a hostname. Multiple dictionary
// interpretations are disambiguated by population alone — DRoP has no
// facility ranking and no custom-hint table.
func (rs *RuleSet) Geolocate(host, suffix string, dict *geodict.Dictionary) (*geodict.Location, bool) {
	rule, ok := rs.Rules[suffix]
	if !ok {
		return nil, false
	}
	segs := segments(host, suffix)
	if rule.PosFromEnd > len(segs) {
		return nil, false
	}
	seg := segs[rule.PosFromEnd-1]
	locs := lookup(dict, seg, rule.Type)
	if len(locs) == 0 {
		return nil, false
	}
	best := locs[0]
	for _, loc := range locs[1:] {
		if loc.Population > best.Population {
			best = loc
		}
	}
	return best, true
}
