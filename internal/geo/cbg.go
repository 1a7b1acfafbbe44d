package geo

import (
	"errors"
	"math"
)

// Constraint is a single delay-derived distance constraint: the target is
// at most MaxDistanceKm(RTTms) kilometres from VP.
type Constraint struct {
	VP    LatLong // location of the vantage point
	RTTms float64 // measured round-trip time in milliseconds
}

// RadiusKm returns the constraint's disc radius in kilometres.
func (c Constraint) RadiusKm() float64 { return MaxDistanceKm(c.RTTms) }

// Contains reports whether p satisfies the constraint.
func (c Constraint) Contains(p LatLong) bool {
	return DistanceKm(c.VP, p) <= c.RadiusKm()
}

// Region is the result of a CBG multilateration: an estimated position and
// an error radius describing the extent of the feasible region.
type Region struct {
	Center        LatLong // estimated location (centroid of the feasible set)
	ErrorRadiusKm float64 // maximum distance from Center to a feasible sample
	AreaKm2       float64 // approximate area of the feasible region
	Samples       int     // number of feasible samples backing the estimate
}

// ErrInfeasible is returned by Multilaterate when no point satisfies every
// constraint — typically a sign of an underestimated RTT or a spoofed
// response.
var ErrInfeasible = errors.New("geo: constraints admit no feasible region")

// Feasible reports whether p satisfies every constraint in cs.
func Feasible(p LatLong, cs []Constraint) bool {
	for _, c := range cs {
		if !c.Contains(p) {
			return false
		}
	}
	return true
}

// Multilaterate estimates the location of a target from a set of delay
// constraints using the CBG approach of Gueye et al.: the target must lie
// in the intersection of the constraint discs; the estimate is the
// centroid of that intersection, and the error radius is the maximal
// distance from the centroid to the intersection's boundary.
//
// The intersection is evaluated numerically: the disc of the tightest
// constraint is sampled on a polar grid and each sample is tested against
// the remaining constraints. samplesPerAxis controls grid density (values
// of 32–128 are reasonable; <8 is clamped to 8).
func Multilaterate(cs []Constraint, samplesPerAxis int) (Region, error) {
	if len(cs) == 0 {
		return Region{}, errors.New("geo: no constraints")
	}
	if samplesPerAxis < 8 {
		samplesPerAxis = 8
	}
	// Identify the tightest constraint; its disc bounds the search.
	tight := cs[0]
	for _, c := range cs[1:] {
		if c.RadiusKm() < tight.RadiusKm() {
			tight = c
		}
	}
	maxR := tight.RadiusKm()
	if maxR <= 0 {
		// Degenerate: RTT of zero pins the target at the VP itself if the
		// other constraints allow it.
		if Feasible(tight.VP, cs) {
			return Region{Center: tight.VP, Samples: 1}, nil
		}
		return Region{}, ErrInfeasible
	}

	var feasible []LatLong
	// Sample the tight disc on a polar grid: rings of constant radius.
	for ri := 0; ri <= samplesPerAxis; ri++ {
		r := maxR * float64(ri) / float64(samplesPerAxis)
		steps := 1
		if ri > 0 {
			// Keep approximately uniform sample density over the disc.
			steps = 6 * ri
		}
		for bi := 0; bi < steps; bi++ {
			b := 360 * float64(bi) / float64(steps)
			p := Destination(tight.VP, b, r)
			if Feasible(p, cs) {
				feasible = append(feasible, p)
			}
		}
	}
	if len(feasible) == 0 {
		return Region{}, ErrInfeasible
	}
	center, err := Centroid(feasible)
	if err != nil {
		return Region{}, err
	}
	var maxDist float64
	for _, p := range feasible {
		if d := DistanceKm(center, p); d > maxDist {
			maxDist = d
		}
	}
	// Approximate area: fraction of feasible samples times tight disc area.
	total := 1
	for ri := 1; ri <= samplesPerAxis; ri++ {
		total += 6 * ri
	}
	area := math.Pi * maxR * maxR * float64(len(feasible)) / float64(total)
	return Region{
		Center:        center,
		ErrorRadiusKm: maxDist,
		AreaKm2:       area,
		Samples:       len(feasible),
	}, nil
}
