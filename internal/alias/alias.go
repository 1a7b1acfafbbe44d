// Package alias implements IP alias resolution in the style of MIDAR
// (Keys et al., ToN 2013), the technique that builds the router-level
// ITDK the paper learns from (§5.1.3): interfaces of one router share a
// central, monotonically increasing IP-ID counter, so two addresses
// belong to the same router when their interleaved IP-ID time series
// remains monotonic (modulo 16-bit wrap) at a plausible velocity —
// MIDAR's Monotonic Bounds Test (MBT).
//
// The package follows MIDAR's three-phase structure:
//
//  1. estimation — probe every address, estimate its counter velocity,
//     and discard addresses with non-monotonic (random or constant)
//     IP-ID behaviour;
//  2. candidate selection — only address pairs with overlapping
//     velocity ranges can share a counter, which prunes the O(n²)
//     pair space;
//  3. elimination — interleave dedicated probe runs for each candidate
//     pair and apply the MBT;
//  4. corroboration — re-test each surviving pair at a distant time
//     (two counters can transiently look shared when their offsets
//     align, but the alignment drifts away); corroborated pairs are
//     aliases, and transitive closure yields routers.
package alias

import (
	"net/netip"
	"sort"
)

// Sample is one IP-ID observation.
type Sample struct {
	T    float64 // seconds since the run began
	IPID uint16
	OK   bool // false: no response
}

// Prober obtains IP-ID samples for addresses — the measurement substrate
// (scamper in the paper's toolchain; a simulator here).
type Prober interface {
	// Probe returns the IP-ID of addr at time t.
	Probe(addr netip.Addr, t float64) Sample
}

// The resolution run's parameters: MIDAR's published shape at test scale.
const (
	// estimationSamples per address in phase 1 (MIDAR uses ~30).
	estimationSamples = 20
	// estimationSpacing in seconds between phase-1 probes.
	estimationSpacing = 0.5
	// eliminationSamples per address in each pairwise MBT run.
	eliminationSamples = 15
	// eliminationSpacing in seconds between interleaved probes.
	eliminationSpacing = 0.3
	// maxVelocity is the highest plausible counter rate (IDs/second);
	// addresses faster than this wrap too quickly to test.
	maxVelocity = 10000
	// velocityOverlap is the multiplicative slack when deciding whether
	// two addresses' velocity ranges overlap.
	velocityOverlap = 1.6
)

// estimate holds an address's phase-1 result.
type estimate struct {
	addr     netip.Addr
	velocity float64 // IDs per second
	samples  []Sample
}

// Result is the outcome of a resolution run.
type Result struct {
	// Routers are the inferred alias sets (two or more addresses each),
	// sorted by their lowest address.
	Routers [][]netip.Addr
	// Singletons are addresses that responded monotonically but matched
	// no other address.
	Singletons []netip.Addr
	// Discarded are addresses with unusable IP-ID behaviour (random,
	// constant, or unresponsive).
	Discarded []netip.Addr
}

// Resolve runs the three MIDAR phases over the addresses.
func Resolve(p Prober, addrs []netip.Addr) *Result {
	res := &Result{}

	// Phase 1: estimation.
	var usable []estimate
	t := 0.0
	for _, addr := range addrs {
		var ss []Sample
		for i := 0; i < estimationSamples; i++ {
			ss = append(ss, p.Probe(addr, t+float64(i)*estimationSpacing))
		}
		est, ok := estimateVelocity(addr, ss)
		if !ok {
			res.Discarded = append(res.Discarded, addr)
			continue
		}
		usable = append(usable, est)
		t += 0.01 // stagger runs slightly, as a real prober would
	}

	// Phase 2: candidate selection by velocity overlap.
	sort.Slice(usable, func(i, j int) bool {
		return usable[i].velocity < usable[j].velocity
	})
	type pair struct{ a, b int }
	var candidates []pair
	for i := 0; i < len(usable); i++ {
		for j := i + 1; j < len(usable); j++ {
			if !velocityCompatible(usable[i].velocity, usable[j].velocity, velocityOverlap) {
				// Sorted by velocity: nothing further can match i.
				break
			}
			candidates = append(candidates, pair{i, j})
		}
	}

	// Phase 3: elimination with interleaved probes + MBT.
	parent := make([]int, len(usable))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	tBase := 1000.0
	for _, c := range candidates {
		if find(c.a) == find(c.b) {
			continue // already aliased transitively
		}
		vmax := usable[c.a].velocity
		if usable[c.b].velocity > vmax {
			vmax = usable[c.b].velocity
		}
		// Phase 3 elimination, then phase 4 corroboration at a distant
		// time: a coincidental counter alignment drifts apart, a shared
		// counter does not.
		if mbt(p, usable[c.a].addr, usable[c.b].addr, tBase, vmax) &&
			mbt(p, usable[c.a].addr, usable[c.b].addr, tBase+517, vmax) {
			union(c.a, c.b)
		}
		tBase += 100
	}

	groups := make(map[int][]netip.Addr)
	for i, e := range usable {
		root := find(i)
		groups[root] = append(groups[root], e.addr)
	}
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i].Less(g[j]) })
		if len(g) >= 2 {
			res.Routers = append(res.Routers, g)
		} else {
			res.Singletons = append(res.Singletons, g[0])
		}
	}
	sort.Slice(res.Routers, func(i, j int) bool {
		return res.Routers[i][0].Less(res.Routers[j][0])
	})
	sort.Slice(res.Singletons, func(i, j int) bool {
		return res.Singletons[i].Less(res.Singletons[j])
	})
	return res
}

// estimateVelocity checks phase-1 samples for usable monotonic
// behaviour and estimates the counter rate.
func estimateVelocity(addr netip.Addr, ss []Sample) (estimate, bool) {
	var got []Sample
	for _, s := range ss {
		if s.OK {
			got = append(got, s)
		}
	}
	if len(got) < 4 {
		return estimate{}, false
	}
	// Total ID advance with wrap unrolling; reject if any interval is
	// implausibly large (random IP-IDs) or everything is constant.
	total := 0.0
	constant := true
	for i := 1; i < len(got); i++ {
		d := float64(uint16(got[i].IPID - got[i-1].IPID)) // wraps naturally
		dt := got[i].T - got[i-1].T
		if dt <= 0 {
			return estimate{}, false
		}
		if d != 0 {
			constant = false
		}
		if d/dt > maxVelocity {
			return estimate{}, false // too fast: random or wrapping
		}
		total += d
	}
	if constant {
		return estimate{}, false
	}
	span := got[len(got)-1].T - got[0].T
	return estimate{addr: addr, velocity: total / span, samples: got}, true
}

// velocityCompatible reports whether two counter velocities could come
// from the same counter, within slack.
func velocityCompatible(a, b, slack float64) bool {
	if a <= 0 || b <= 0 {
		return false
	}
	hi, lo := a, b
	if hi < lo {
		hi, lo = lo, hi
	}
	return hi <= lo*slack
}

// mbt interleaves probes to two addresses and applies the Monotonic
// Bounds Test: the merged sample sequence must be monotonically
// increasing modulo wrap, and every gap must advance no faster than the
// pair's own estimated counter velocity allows (MIDAR bounds each gap
// with the target's measured velocity, not a global limit — two
// distinct counters at similar rates but different offsets produce
// alternating jumps far above the per-gap bound).
func mbt(p Prober, a, b netip.Addr, tBase, vmax float64) bool {
	var merged []Sample
	t := tBase
	fromA, fromB := 0, 0
	for i := 0; i < eliminationSamples; i++ {
		if sa := p.Probe(a, t); sa.OK {
			merged = append(merged, sa)
			fromA++
		}
		t += eliminationSpacing
		if sb := p.Probe(b, t); sb.OK {
			merged = append(merged, sb)
			fromB++
		}
		t += eliminationSpacing
	}
	// Lost probes are skipped, not fatal, but both addresses must
	// contribute enough interleaved evidence.
	need := eliminationSamples * 2 / 3
	if fromA < need || fromB < need {
		return false
	}
	// Per-gap bound: velocity slack plus an additive allowance for
	// other traffic consuming IDs between probes.
	const idAllowance = 64
	for i := 1; i < len(merged); i++ {
		d := float64(uint16(merged[i].IPID - merged[i-1].IPID))
		dt := merged[i].T - merged[i-1].T
		if dt <= 0 || d > vmax*velocityOverlap*dt+idAllowance {
			return false
		}
	}
	return true
}
