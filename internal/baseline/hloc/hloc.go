// Package hloc reimplements the HLOC technique of Scheitle et al.
// (TMA 2017) as the paper describes it (§3.2, §6.1), preserving its
// documented behaviours:
//
//   - no learned rules: candidate geohints are found in each hostname at
//     run time by dictionary lookup over its punctuation-delimited
//     tokens, filtered by a manually-curated blocklist of strings known
//     not to be geohints ("level", "atlas", ...);
//   - confirmation bias: each candidate location is checked only against
//     the vantage points CLOSEST TO THAT LOCATION — a large RTT from a
//     nearby VP never refutes the candidate, it merely fails to confirm
//     it, and VPs far from the candidate that could refute it are never
//     consulted (the paper's Waco/Chiclayo example);
//   - no custom geohints: strings outside the dictionary are ignored;
//   - a candidate fails when no nearby VP has an RTT sample for the
//     router (the paper's nysernet case).
package hloc

import (
	"sort"
	"strings"

	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/rtt"
)

// vpsPerCandidate is how many VPs nearest a candidate location are
// consulted: three, as in HLOC's published configuration (HLOC limits
// probing to conserve RIPE Atlas credits).
const vpsPerCandidate = 3

// blocklist holds the strings never considered as geohints: a starter
// blocklist (the paper mentions 468 entries; ours covers the structural
// vocabulary of router hostnames).
var blocklist = func() map[string]bool {
	bl := make(map[string]bool)
	for _, s := range []string{
		"level", "atlas", "vodafone", "static", "dynamic", "cust",
		"customer", "net", "core", "edge", "peer", "router", "rtr",
		"gw", "ge", "xe", "ae", "te", "eth", "gig", "cpe", "pos",
		"serial", "vlan", "bundle", "port", "host", "ip", "dsl",
		"cable", "fiber", "mpls", "bgp",
	} {
		bl[s] = true
	}
	return bl
}()

// HLOC is a run-time hostname geolocator.
type HLOC struct {
	dict   *geodict.Dictionary
	matrix *rtt.Matrix
}

// New returns an HLOC instance over the dictionary and RTT matrix.
func New(dict *geodict.Dictionary, matrix *rtt.Matrix) *HLOC {
	return &HLOC{dict: dict, matrix: matrix}
}

// tokens splits a hostname's prefix into candidate strings.
func tokens(host, suffix string) []string {
	host = strings.ToLower(host)
	if !strings.HasSuffix(host, "."+suffix) {
		return nil
	}
	prefix := strings.TrimSuffix(host, "."+suffix)
	raw := strings.FieldsFunc(prefix, func(r rune) bool {
		return r == '.' || r == '-' || r == '_'
	})
	var out []string
	for _, t := range raw {
		// Strip trailing digits ("lhr15" -> "lhr"); HLOC normalises
		// tokens this way before dictionary lookup.
		t = strings.TrimRight(t, "0123456789")
		if t != "" {
			out = append(out, t)
		}
	}
	return out
}

// codeTypes names the coded dictionary HLOC tries a token in by its
// length; a token of four or more letters is then tried as a place.
var codeTypes = map[int]geodict.HintType{3: geodict.HintIATA, 5: geodict.HintLocode, 6: geodict.HintCLLI}

// candidates enumerates the dictionary interpretations of a hostname's
// tokens, honouring the blocklist.
func (h *HLOC) candidates(host, suffix string) []*geodict.Location {
	var out []*geodict.Location
	seen := make(map[string]bool)
	for _, tok := range tokens(host, suffix) {
		if blocklist[tok] || seen[tok] {
			continue
		}
		seen[tok] = true
		types := []geodict.HintType{codeTypes[len(tok)]}
		if len(tok) >= 4 {
			types = append(types, geodict.HintPlace)
		}
		for _, t := range types {
			out = append(out, h.dict.Locations(t, tok)...)
		}
	}
	return out
}

// Geolocate evaluates a router hostname: each candidate location is
// checked against the RTT samples of the VPs closest to it; a candidate
// is confirmed when the measured RTT from such a VP is feasible for the
// candidate (the one-sided test, applied only from nearby VPs). Among
// confirmed candidates the one whose confirming VP measured the smallest
// RTT wins.
func (h *HLOC) Geolocate(routerID, host, suffix string) (*geodict.Location, bool) {
	cands := h.candidates(host, suffix)
	if len(cands) == 0 {
		return nil, false
	}
	var bestLoc *geodict.Location
	bestRTT := -1.0
	for _, loc := range cands {
		rttMs, ok := h.confirm(routerID, loc)
		if !ok {
			continue
		}
		if bestRTT < 0 || rttMs < bestRTT {
			bestRTT = rttMs
			bestLoc = loc
		}
	}
	return bestLoc, bestLoc != nil
}

// confirm checks a candidate location against the VPs nearest to it.
func (h *HLOC) confirm(routerID string, loc *geodict.Location) (float64, bool) {
	vps := append([]*rtt.VP(nil), h.matrix.VPs()...)
	sort.Slice(vps, func(i, j int) bool {
		return geo.DistanceKm(vps[i].Pos, loc.Pos) < geo.DistanceKm(vps[j].Pos, loc.Pos)
	})
	for _, vp := range vps[:min(vpsPerCandidate, len(vps))] {
		s, ok := h.matrix.Ping(routerID, vp.Name)
		if !ok {
			continue // no sample from this VP (the nysernet failure mode)
		}
		// One-sided feasibility from a VP near the candidate: the
		// candidate is "confirmed" whenever the RTT disc around the VP
		// covers it — which a large RTT always does. VPs far from the
		// candidate, which could refute it, are never consulted.
		if geo.MaxDistanceKm(s.RTTms) >= geo.DistanceKm(vp.Pos, loc.Pos) {
			return s.RTTms, true
		}
	}
	return 0, false
}
