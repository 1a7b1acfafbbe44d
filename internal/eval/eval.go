// Package eval reproduces the paper's evaluation: every table and figure
// in §6 (plus fig. 5 from §5.1.4, the §6.1 ablation and the design
// ablations of DESIGN.md §4), computed over synthetic ITDK worlds with
// retained ground truth. Each table or figure has a Compute function
// returning a typed result and a Format method that prints rows shaped
// like the paper's; Experiments lists every experiment in print order.
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hoiho/internal/geo"
	"hoiho/internal/synth"
)

// TruePositiveKm is the paper's correctness criterion: an inference is a
// true positive when it lands within 40 km of ground truth (§6.1, after
// DRoP).
const TruePositiveKm = 40.0

// Within reports whether an inferred position is a true positive for a
// true position.
func Within(inferred, truth geo.LatLong) bool {
	return geo.DistanceKm(inferred, truth) <= TruePositiveKm
}

// MethodResult tallies one geolocation method over a hostname set.
type MethodResult struct {
	TP, FP, FN int
}

// Total returns the number of evaluated hostnames.
func (m MethodResult) Total() int { return m.TP + m.FP + m.FN }

// TPPct is the percentage of hostnames correctly geolocated.
func (m MethodResult) TPPct() float64 { return pct(m.TP, m.Total()) }

// FPPct is the percentage of hostnames incorrectly geolocated.
func (m MethodResult) FPPct() float64 { return pct(m.FP, m.Total()) }

// FNPct is the percentage of hostnames with no answer.
func (m MethodResult) FNPct() float64 { return pct(m.FN, m.Total()) }

// PPV is TP / (TP+FP) — precision over answered hostnames.
func (m MethodResult) PPV() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Add accumulates another result.
func (m *MethodResult) Add(o MethodResult) {
	m.TP += o.TP
	m.FP += o.FP
	m.FN += o.FN
}

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// quantile returns the p-quantile (0..1) of a sorted slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := p * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF summarises a distribution at standard quantiles.
type CDF struct {
	N         int
	Quantiles map[int]float64 // percent -> value
}

func makeCDF(values []float64) CDF {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	q := make(map[int]float64)
	for _, p := range []int{10, 25, 50, 75, 80, 90, 95} {
		q[p] = quantile(sorted, float64(p)/100)
	}
	return CDF{N: len(sorted), Quantiles: q}
}

// Format renders the CDF quantiles on one line.
func (c CDF) Format(unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d ", c.N)
	for _, p := range []int{10, 25, 50, 75, 80, 90, 95} {
		fmt.Fprintf(&b, " p%d=%.1f%s", p, c.Quantiles[p], unit)
	}
	return b.String()
}

// closestVPRTTms returns the theoretical best-case RTT from the nearest
// vantage point to a location — the paper's "RTT from the closest VP"
// proxy for VP density (figs. 10a, 11).
func closestVPRTTms(w *synth.World, pos geo.LatLong) float64 {
	best := math.Inf(1)
	for _, vp := range w.Matrix.VPs() {
		if r := geo.MinRTTms(vp.Pos, pos); r < best {
			best = r
		}
	}
	return best
}
