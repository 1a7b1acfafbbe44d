// Package asn implements the second Hoiho capability the geolocation
// paper builds on (§3.4; Luckie et al., IMC 2020): learning per-suffix
// regexes that extract the *autonomous system number* operators embed in
// router hostnames — usually the ASN of the customer or peer attached
// to an interconnection interface ("as8218-acme.cr1.lhr1.ntt.net").
//
// Training validates candidate extractions against an IP-to-AS mapping
// (from BGP dumps in the paper; from generator ground truth here): a
// candidate regex scores a true positive when the number it extracts
// matches the mapping's ASN for the interface address.
package asn

import (
	"net/netip"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"hoiho/internal/itdk"
	"hoiho/internal/psl"
)

// Mapping resolves an interface address to its origin ASN — the
// substrate standing in for a BGP-derived IP-to-AS table.
type Mapping interface {
	ASN(addr netip.Addr) (uint32, bool)
}

// AddrMap is a Mapping backed by an exact per-address table.
type AddrMap map[netip.Addr]uint32

// ASN implements Mapping.
func (m AddrMap) ASN(addr netip.Addr) (uint32, bool) {
	a, ok := m[addr]
	return a, ok
}

// Convention is a learned ASN-extraction convention for a suffix.
type Convention struct {
	Suffix  string
	Pattern string
	re      *regexp.Regexp

	TP     int // extractions matching the IP-to-AS mapping
	FP     int // extractions contradicting the mapping
	Missed int // mapped hostnames the regex did not match
}

// PPV is the convention's precision over extractions.
func (c *Convention) PPV() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// ExtractASN applies the convention to a hostname. The compiled regex
// is the suffix-stripped template, so the hostname's suffix is cut
// first; a hostname outside the suffix never matches, exactly as the
// full pattern (which ends in the literal suffix) would fail.
func (c *Convention) ExtractASN(host string) (uint32, bool) {
	u, ok := strings.CutSuffix(strings.ToLower(host), c.Suffix)
	if !ok {
		return 0, false
	}
	m := c.re.FindStringSubmatch(u)
	if m == nil {
		return 0, false
	}
	n, err := strconv.ParseUint(m[1], 10, 32)
	if err != nil || n == 0 {
		return 0, false
	}
	return uint32(n), true
}

// template pairs a candidate pattern shape with its compiled form.
// Every shape ends in the literal `<sfx>$`, so the full pattern matches
// a hostname iff the hostname ends with the suffix and the stripped
// pattern matches the rest, with identical submatches — the regexes
// compile once at package init instead of once per suffix per Learn.
type template struct {
	pattern string         // published shape, with the <sfx> placeholder
	re      *regexp.Regexp // compiled with <sfx> removed
}

// candidateTemplates is the template family; <sfx> is the escaped
// suffix. The shapes cover the conventions the IMC 2020 paper reports:
// "as"-prefixed numbers in any label and bare leading numbers.
var candidateTemplates = []template{
	{`^as(\d+)(?:-[^\.]*)?\..*<sfx>$`, regexp.MustCompile(`^as(\d+)(?:-[^\.]*)?\..*$`)},         // as8218-acme.…
	{`^.+\.as(\d+)(?:-[^\.]*)?\..*<sfx>$`, regexp.MustCompile(`^.+\.as(\d+)(?:-[^\.]*)?\..*$`)}, // x.as8218-acme.…
	{`^as(\d+)\..*<sfx>$`, regexp.MustCompile(`^as(\d+)\..*$`)},                                 // as8218.…
	{`^(\d+)\..*<sfx>$`, regexp.MustCompile(`^(\d+)\..*$`)},                                     // 8218.…
	{`^[^\.]+-as(\d+)\..*<sfx>$`, regexp.MustCompile(`^[^\.]+-as(\d+)\..*$`)},                   // acme-as8218.…
}

// The published thresholds a learned convention must meet.
const (
	minTP  = 3   // matching extractions
	minPPV = 0.9 // precision
)

// Learn infers ASN-extraction conventions for every suffix whose
// hostnames embed ASNs consistently with the mapping.
func Learn(corpus *itdk.Corpus, list *psl.List, mapping Mapping) []*Convention {
	var out []*Convention
	for _, group := range corpus.GroupBySuffix(list) {
		if c := learnSuffix(group, mapping); c != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Suffix < out[j].Suffix })
	return out
}

// hostASN pairs a hostname with its interface's mapped ASN.
type hostASN struct {
	host string
	asn  uint32
}

func learnSuffix(group *itdk.SuffixGroup, mapping Mapping) *Convention {
	// Collect hostnames whose interface address has a mapped ASN.
	var cases []hostASN
	for _, rh := range group.Hosts {
		for _, ifc := range rh.Router.Interfaces {
			if ifc.Hostname != rh.Hostname {
				continue
			}
			if a, ok := mapping.ASN(ifc.Addr); ok {
				cases = append(cases, hostASN{strings.ToLower(rh.Hostname), a})
			}
		}
	}
	if len(cases) < minTP {
		return nil
	}
	sfx := regexp.QuoteMeta(group.Suffix)
	var best *Convention
	for _, tmpl := range candidateTemplates {
		pattern := strings.ReplaceAll(tmpl.pattern, "<sfx>", sfx)
		c := &Convention{Suffix: group.Suffix, Pattern: pattern, re: tmpl.re}
		for _, hc := range cases {
			got, ok := c.ExtractASN(hc.host)
			switch {
			case !ok:
				c.Missed++
			case got == hc.asn:
				c.TP++
			default:
				c.FP++
			}
		}
		if best == nil || c.TP-c.FP-c.Missed > best.TP-best.FP-best.Missed {
			best = c
		}
	}
	if best == nil || best.TP < minTP || best.PPV() < minPPV {
		return nil
	}
	return best
}
