// Package tbg implements topology-based geolocation in the style of
// Katz-Bassett et al. (IMC 2006, paper §3.1), using hostname-geolocated
// routers as anchors — the integration the paper's conclusion names as
// the most promising next step: "synthesize this new capability with
// tools that perform alias resolution and router-level topology
// mapping".
//
// For a target router the method combines two constraint families:
//
//  1. its own delay constraints — each vantage point's RTT bounds the
//     target to a disc around the VP;
//  2. topology constraints — for each router-level neighbor with a
//     known (hostname-derived) location, the per-VP RTT difference
//     between target and neighbor bounds the link's propagation length,
//     confining the target to a disc around the anchor.
//
// The constraints are intersected with CBG multilateration. Hostname
// anchors typically shrink the feasible region by an order of magnitude
// compared to VP constraints alone.
package tbg

import (
	"math"
	"sort"

	"hoiho/internal/core"
	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/rtt"
)

// Anchors maps router IDs to hostname-derived locations.
type Anchors map[string]*geodict.Location

// BuildAnchors geolocates every router it can through the learned
// conventions, returning the anchor set. Only usable conventions
// contribute, and a router anchors only when its geolocated hostnames
// agree (within 40 km) and the location is RTT-consistent.
func BuildAnchors(in core.Inputs, res *core.Result, list *psl.List) Anchors {
	anchors := make(Anchors)
	reject := make(map[string]bool)
	for _, group := range in.Corpus.GroupBySuffix(list) {
		nc := res.NCs[group.Suffix]
		if nc == nil || !nc.Class.Usable() {
			continue
		}
		for _, rh := range group.Hosts {
			g, ok := core.Geolocate(nc, in.Dict, rh.Hostname)
			if !ok {
				continue
			}
			if !in.RTT.Consistent(rh.Router.ID, g.Loc.Pos, core.ToleranceMs) {
				continue
			}
			if prev, exists := anchors[rh.Router.ID]; exists {
				if geo.DistanceKm(prev.Pos, g.Loc.Pos) > 40 {
					reject[rh.Router.ID] = true
				}
				continue
			}
			anchors[rh.Router.ID] = g.Loc
		}
	}
	for id := range reject {
		delete(anchors, id)
	}
	return anchors
}

// The constraint-derivation bounds.
const (
	// linkSlackMs is added to per-VP RTT differences before converting
	// them to link-length bounds, absorbing queueing asymmetry.
	linkSlackMs = 2.0
	// maxAnchors caps how many neighbor anchors contribute constraints.
	maxAnchors = 8
	// cbgSamples controls the CBG grid density.
	cbgSamples = 32
)

// Estimate is a TBG geolocation result.
type Estimate struct {
	Region      geo.Region
	VPs         int // VP delay constraints used
	AnchorLinks int // neighbor anchor constraints used
}

// Geolocate estimates the location of a target router. ok is false when
// no constraints exist or they are mutually infeasible.
func Geolocate(corpus *itdk.Corpus, matrix *rtt.Matrix, anchors Anchors, target string) (Estimate, bool) {
	var est Estimate
	cs := matrix.Constraints(target)
	est.VPs = len(cs)

	// Topology constraints from anchored neighbors.
	nbrs := append([]string(nil), corpus.Neighbors(target)...)
	sort.Strings(nbrs)
	for _, nbr := range nbrs {
		loc, ok := anchors[nbr]
		if !ok {
			continue
		}
		bound, ok := linkBoundMs(matrix, target, nbr, linkSlackMs)
		if !ok {
			continue
		}
		cs = append(cs, geo.Constraint{VP: loc.Pos, RTTms: bound})
		est.AnchorLinks++
		if est.AnchorLinks >= maxAnchors {
			break
		}
	}
	if len(cs) == 0 {
		return est, false
	}
	region, err := geo.Multilaterate(cs, cbgSamples)
	if err != nil {
		return est, false
	}
	est.Region = region
	return est, true
}

// linkBoundMs derives an RTT-equivalent bound on the target's distance
// from a neighbor: the smallest per-VP difference between the RTT to
// the target and the RTT to the neighbor, plus slack. When the target
// is farther than the neighbor from some VP, the difference upper-bounds
// twice the link's propagation delay.
func linkBoundMs(matrix *rtt.Matrix, target, nbr string, slackMs float64) (float64, bool) {
	best := math.Inf(1)
	for _, mt := range matrix.PingMeasurements(target) {
		sn, ok := matrix.Ping(nbr, mt.VP.Name)
		if !ok {
			continue
		}
		diff := mt.Sample.RTTms - sn.RTTms
		if diff < 0 {
			diff = -diff
		}
		if diff < best {
			best = diff
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best + slackMs, true
}
