// Package names implements the original Hoiho capability the geolocation
// paper builds on (§3.4; Luckie et al., IMC 2019): learning per-suffix
// regexes that extract the *router name* — the hostname substring shared
// by all interfaces of one alias-resolved router, distinct across
// routers ("xe-0-0-ash1-bcr1.bb.example.com" and
// "xe-0-1-ash1-bcr1.bb.example.com" share the router name "ash1-bcr1").
//
// Training uses the alias-resolution signal already present in an ITDK
// corpus: interfaces grouped onto routers. A candidate regex scores a
// true positive when every hostname of a multi-hostname router extracts
// the same name, a collision when two different routers extract the
// same name, and a miss when it fails to cover a multi-hostname
// router's hostnames. Candidates are ranked by the same
// absolute-true-positive metric the geolocation pipeline uses.
package names

import (
	"regexp"
	"sort"
	"strings"

	"hoiho/internal/itdk"
	"hoiho/internal/psl"
)

// Convention is a learned router-name convention for a suffix.
type Convention struct {
	Suffix  string
	Pattern string
	re      *regexp.Regexp

	// Routers is the number of multi-hostname routers whose hostnames
	// all extracted the same name.
	Routers int
	// Collisions counts extra routers sharing an already-claimed name.
	Collisions int
	// Missed is the number of multi-hostname routers the regex did not
	// consistently cover.
	Missed int
}

// ATP is the convention's absolute-true-positive score.
func (c *Convention) ATP() int { return c.Routers - c.Collisions - c.Missed }

// ExtractName applies the convention to a hostname. The compiled regex
// is the suffix-stripped template, so the hostname's suffix is cut
// first; a hostname outside the suffix never matches, exactly as the
// full pattern (which ends in the literal suffix) would fail.
func (c *Convention) ExtractName(host string) (string, bool) {
	u, ok := strings.CutSuffix(strings.ToLower(host), c.Suffix)
	if !ok {
		return "", false
	}
	m := c.re.FindStringSubmatch(u)
	if m == nil || m[1] == "" {
		return "", false
	}
	return m[1], true
}

// minRouters is how many multi-hostname routers a suffix needs, and how
// many a convention must name consistently: two, since one router
// cannot show that the extracted names differ across routers.
const minRouters = 2

// Learn infers router-name conventions for every suffix in the corpus
// with at least minRouters multi-hostname routers, sorted by suffix.
func Learn(corpus *itdk.Corpus, list *psl.List) []*Convention {
	var out []*Convention
	for _, group := range corpus.GroupBySuffix(list) {
		if c := learnSuffix(group); c != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Suffix < out[j].Suffix })
	return out
}

// template pairs a candidate pattern shape with its compiled form.
// Every shape ends in the literal `<sfx>$`, so matching decomposes
// exactly: the full pattern matches a hostname iff the hostname ends
// with the suffix and the suffix-stripped pattern matches the rest,
// with identical submatches. That lets the regexes compile once at
// package init instead of once per suffix per Learn call.
type template struct {
	pattern string         // published shape, with the <sfx> placeholder
	re      *regexp.Regexp // compiled with <sfx> removed
}

// candidateTemplates is the template family evaluated per suffix; <sfx>
// is the escaped suffix. The shapes cover the conventions the IMC 2019
// paper reports: the name as the trailing label(s) before the suffix,
// everything after an interface label, and dash-embedded names.
var candidateTemplates = []template{
	// name = last label ("ae1.cr1-lhr1.example.net" -> "cr1-lhr1")
	{`^.+\.([^\.]+)\.<sfx>$`, regexp.MustCompile(`^.+\.([^\.]+)\.$`)},
	// name = last two labels ("ae1.cr1.lhr1.example.net" -> "cr1.lhr1")
	{`^.+\.([^\.]+\.[^\.]+)\.<sfx>$`, regexp.MustCompile(`^.+\.([^\.]+\.[^\.]+)\.$`)},
	// name = everything after the interface label
	{`^[^\.]+\.(.+)\.<sfx>$`, regexp.MustCompile(`^[^\.]+\.(.+)\.$`)},
	// name = trailing two dash components of the first label
	// ("xe-0-0-ash1-bcr1.bb.example.com" -> "ash1-bcr1")
	{`^[^\.]+?-([a-z\d]+-[a-z\d]+)\.(?:[^\.]+\.)?<sfx>$`, regexp.MustCompile(`^[^\.]+?-([a-z\d]+-[a-z\d]+)\.(?:[^\.]+\.)?$`)},
	// name = second label, with a constant tail label
	// ("ae1.cr1-lhr.bb.example.net" -> "cr1-lhr")
	{`^[^\.]+\.([^\.]+)\.[^\.]+\.<sfx>$`, regexp.MustCompile(`^[^\.]+\.([^\.]+)\.[^\.]+\.$`)},
}

func learnSuffix(group *itdk.SuffixGroup) *Convention {
	byRouter := make(map[string][]string)
	for _, rh := range group.Hosts {
		byRouter[rh.Router.ID] = append(byRouter[rh.Router.ID], strings.ToLower(rh.Hostname))
	}
	multi := 0
	for _, hs := range byRouter {
		if len(hs) >= 2 {
			multi++
		}
	}
	if multi < minRouters {
		return nil
	}

	sfx := regexp.QuoteMeta(group.Suffix)
	var best *Convention
	for _, tmpl := range candidateTemplates {
		pattern := strings.ReplaceAll(tmpl.pattern, "<sfx>", sfx)
		c := evaluate(group.Suffix, pattern, tmpl.re, byRouter)
		if best == nil || c.ATP() > best.ATP() {
			best = c
		}
	}
	if best == nil || best.Routers < minRouters || best.ATP() <= 0 {
		return nil
	}
	return best
}

// evaluate scores a candidate over a suffix's routers.
func evaluate(suffix, pattern string, re *regexp.Regexp, byRouter map[string][]string) *Convention {
	c := &Convention{Suffix: suffix, Pattern: pattern, re: re}
	nameOwners := make(map[string]int) // extracted name -> routers claiming it
	var order []string
	for rid := range byRouter {
		order = append(order, rid)
	}
	sort.Strings(order)
	for _, rid := range order {
		hs := byRouter[rid]
		if len(hs) < 2 {
			continue
		}
		name := ""
		consistent := true
		for _, h := range hs {
			n, ok := c.ExtractName(h)
			if !ok {
				consistent = false
				break
			}
			if name == "" {
				name = n
			} else if name != n {
				consistent = false
				break
			}
		}
		if !consistent {
			c.Missed++
			continue
		}
		c.Routers++
		nameOwners[name]++
	}
	for _, owners := range nameOwners {
		if owners > 1 {
			c.Collisions += owners - 1
		}
	}
	return c
}
