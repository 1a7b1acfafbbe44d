package eval

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"hoiho/internal/baseline/drop"
	"hoiho/internal/baseline/hloc"
	"hoiho/internal/baseline/undns"
	"hoiho/internal/core"
	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/synth"
)

// Fig5 summarises the value of followup pings over traceroute RTTs
// (paper fig. 5): the CDFs of minimum ping and traceroute RTTs per
// responsive router, the implied search-area ratio, and how many VPs
// observe each router.
type Fig5 struct {
	PingCDF                 CDF
	TraceCDF                CDF
	MedianPing, MedianTrace float64
	AreaRatio               float64 // (median trace / median ping)^2
	// FracOneTraceVP is the fraction of routers observed by exactly one
	// VP in traceroute (paper: 35.8%).
	FracOneTraceVP float64
	// FracMostVPsPing is the fraction of ping-responsive routers with
	// samples from >= 90% of VPs (paper: 89.4% of routers from all VPs).
	FracMostVPsPing float64
}

// ComputeFig5 evaluates the measurement campaign of one world.
func ComputeFig5(w *synth.World) Fig5 {
	var pings, traces []float64
	oneTrace, traced := 0, 0
	most, respond := 0, 0
	nVPs := len(w.Matrix.VPs())
	for _, r := range w.Corpus.Routers {
		pm := w.Matrix.PingMeasurements(r.ID)
		tm := w.Matrix.TraceMeasurements(r.ID)
		if len(tm) > 0 {
			traced++
			traces = append(traces, tm[0].Sample.RTTms)
			if len(tm) == 1 {
				oneTrace++
			}
		}
		if len(pm) > 0 {
			respond++
			pings = append(pings, pm[0].Sample.RTTms)
			if float64(len(pm)) >= 0.9*float64(nVPs) {
				most++
			}
		}
	}
	f := Fig5{PingCDF: makeCDF(pings), TraceCDF: makeCDF(traces)}
	f.MedianPing = f.PingCDF.Quantiles[50]
	f.MedianTrace = f.TraceCDF.Quantiles[50]
	if f.MedianPing > 0 {
		ratio := f.MedianTrace / f.MedianPing
		f.AreaRatio = ratio * ratio
	}
	if traced > 0 {
		f.FracOneTraceVP = float64(oneTrace) / float64(traced)
	}
	if respond > 0 {
		f.FracMostVPsPing = float64(most) / float64(respond)
	}
	return f
}

// Format renders the figure's series.
func (f Fig5) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig5a ping  RTT CDF: %s\n", f.PingCDF.Format("ms"))
	fmt.Fprintf(&b, "fig5a trace RTT CDF: %s\n", f.TraceCDF.Format("ms"))
	fmt.Fprintf(&b, "fig5a medians: ping=%.1fms trace=%.1fms ratio=%.2fx area=%.1fx\n",
		f.MedianPing, f.MedianTrace, f.MedianTrace/f.MedianPing, f.AreaRatio)
	fmt.Fprintf(&b, "fig5b routers observed by one VP in traceroute: %.1f%%\n", 100*f.FracOneTraceVP)
	fmt.Fprintf(&b, "fig5b ping-responsive routers sampled from >=90%% of VPs: %.1f%%\n", 100*f.FracMostVPsPing)
	return b.String()
}

// Methods evaluated in fig. 9, in display order.
var Fig9Methods = []string{"hoiho", "undns", "drop", "hloc"}

// Fig9MinHosts is the minimum number of geohint-bearing hostnames a
// suffix needs to enter the figure-9 comparison. The paper evaluates
// over networks whose operators answered validation requests — all
// substantial deployments; the long tail of tiny suffixes is out of
// scope there (it shows up in Table 3's "poor" row instead).
const Fig9MinHosts = 8

// Fig9 compares router geolocation methods over hostnames known to
// carry geohints (paper fig. 9).
type Fig9 struct {
	Suffixes  []string
	PerSuffix map[string]map[string]MethodResult
	Overall   map[string]MethodResult
}

// BuildUndnsRuleset synthesises a hand-curated, partially-stale undns
// database for a world: for each operator it writes the rule a careful
// human would have written, but covers only `coverage` of the operator's
// site codes — modelling the 2014-frozen database's partial tables.
func BuildUndnsRuleset(w *synth.World, coverage float64, seed int64) *undns.RuleSet {
	rng := rand.New(rand.NewSource(seed))
	rs := undns.NewRuleSet()
	for _, spec := range w.Specs {
		pattern, keyFn := undnsPattern(spec)
		if pattern == "" {
			continue
		}
		codes := make(map[string]*geodict.Location)
		for _, site := range spec.Sites {
			if rng.Float64() > coverage {
				continue
			}
			codes[keyFn(site.Code)] = site.Loc
		}
		if len(codes) == 0 {
			continue
		}
		if err := rs.AddRule(spec.Suffix, pattern, codes); err != nil {
			panic(err) // patterns below are statically valid
		}
	}
	return rs
}

// undnsPattern returns the capture pattern and code-key function for a
// convention style.
func undnsPattern(spec *synth.OperatorSpec) (string, func(string) string) {
	suffix := regexp.QuoteMeta("." + spec.Suffix)
	ident := func(s string) string { return s }
	switch spec.Style {
	case synth.StyleIATA:
		return `^.+\.([a-z]{3})\d*` + suffix + `$`, ident
	case synth.StyleIATACC:
		return `^.+\.([a-z]{3})\d*\.[a-z]{2,3}` + suffix + `$`, ident
	case synth.StyleCLLI:
		return `^.+\.([a-z]{6})\d*\.[a-z]{2,3}\.bb` + suffix + `$`, ident
	case synth.StyleSplitCLLI:
		return `^.+\.([a-z]{4}-[a-z]{2})` + suffix + `$`,
			func(s string) string { return s[:4] + "-" + s[4:] }
	case synth.StyleLocode:
		return `^.+\.([a-z]{5})\d*` + suffix + `$`, ident
	case synth.StyleCity:
		return `^[^\.]+\.([a-z]+)\d*\.[a-z]{2,3}` + suffix + `$`, ident
	case synth.StyleCityState:
		return `^[^\.]+\.([a-z]+)\d*\.[a-z]{2,3}\.[a-z]{2,3}` + suffix + `$`, ident
	default:
		return "", nil // the database never covered facility addresses
	}
}

// fig9Case is one hostname of the figure-9 comparison: a hint-bearing
// hostname of a suffix with at least Fig9MinHosts of them, whose router
// has ground truth.
type fig9Case struct {
	host, suffix, router string
	truth                geo.LatLong
}

// fig9Cases lists the world's figure-9 hostnames, sorted.
func fig9Cases(w *synth.World) []fig9Case {
	hostRouter := make(map[string]string)
	for _, r := range w.Corpus.Routers {
		for _, ifc := range r.Interfaces {
			if ifc.Hostname != "" {
				hostRouter[ifc.Hostname] = r.ID
			}
		}
	}
	perSuffix := make(map[string]int)
	for _, suffix := range w.HintHostnames {
		perSuffix[suffix]++
	}
	var cases []fig9Case
	for host, suffix := range w.HintHostnames {
		if perSuffix[suffix] < Fig9MinHosts {
			continue
		}
		rid, ok := hostRouter[host]
		if !ok {
			continue
		}
		truth := w.TruthRouter[rid]
		if truth == nil {
			continue
		}
		cases = append(cases, fig9Case{host, suffix, rid, truth.Pos})
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].host < cases[j].host })
	return cases
}

// score counts one answer against ground truth: a miss when the method
// gave none, a true positive within TruePositiveKm, a false positive
// otherwise.
func (m *MethodResult) score(loc *geodict.Location, answered bool, truth geo.LatLong) {
	switch {
	case !answered:
		m.FN++
	case Within(loc.Pos, truth):
		m.TP++
	default:
		m.FP++
	}
}

// hoihoAnswer geolocates a case through the learned convention for its
// suffix.
func hoihoAnswer(w *synth.World, res *core.Result, c fig9Case) (*geodict.Location, bool) {
	nc := res.NCs[c.suffix]
	if nc == nil {
		return nil, false
	}
	g, ok := core.Geolocate(nc, w.Dict, c.host)
	if !ok {
		return nil, false
	}
	return g.Loc, true
}

// ComputeFig9 evaluates Hoiho (the pipeline result), DRoP, HLOC, and
// undns over every convention-rendered hostname in the world, using the
// 40 km criterion against generator ground truth.
func ComputeFig9(w *synth.World, res *core.Result) Fig9 {
	dropRules := drop.Learn(w.Corpus, w.PSL, w.Dict, w.Matrix)
	hlocInst := hloc.New(w.Dict, w.Matrix)
	undnsRules := BuildUndnsRuleset(w, 0.6, 14)

	f := Fig9{PerSuffix: make(map[string]map[string]MethodResult),
		Overall: make(map[string]MethodResult)}
	record := func(c fig9Case, method string, loc *geodict.Location, answered bool) {
		m := f.PerSuffix[c.suffix]
		if m == nil {
			m = make(map[string]MethodResult)
			f.PerSuffix[c.suffix] = m
		}
		r := m[method]
		r.score(loc, answered, c.truth)
		m[method] = r
	}
	for _, c := range fig9Cases(w) {
		loc, ok := hoihoAnswer(w, res, c)
		record(c, "hoiho", loc, ok)
		loc, ok = dropRules.Geolocate(c.host, c.suffix, w.Dict)
		record(c, "drop", loc, ok)
		loc, ok = hlocInst.Geolocate(c.router, c.host, c.suffix)
		record(c, "hloc", loc, ok)
		loc, ok = undnsRules.Geolocate(c.host, c.suffix)
		record(c, "undns", loc, ok)
	}

	for suffix, m := range f.PerSuffix {
		f.Suffixes = append(f.Suffixes, suffix)
		for method, r := range m {
			o := f.Overall[method]
			o.Add(r)
			f.Overall[method] = o
		}
	}
	sort.Strings(f.Suffixes)
	return f
}

// Format renders per-suffix bars and the overall comparison.
func (f Fig9) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "suffix")
	for _, m := range Fig9Methods {
		fmt.Fprintf(&b, " %18s", m+" TP/FP/FN%")
	}
	b.WriteByte('\n')
	rowFor := func(name string, m map[string]MethodResult) {
		fmt.Fprintf(&b, "%-22s", name)
		for _, method := range Fig9Methods {
			r := m[method]
			fmt.Fprintf(&b, "   %5.1f/%4.1f/%5.1f", r.TPPct(), r.FPPct(), r.FNPct())
		}
		b.WriteByte('\n')
	}
	for _, s := range f.Suffixes {
		rowFor(s, f.PerSuffix[s])
	}
	rowFor("OVERALL", f.Overall)
	fmt.Fprintf(&b, "%-22s", "PPV")
	for _, method := range Fig9Methods {
		fmt.Fprintf(&b, " %17.1f%%", 100*f.Overall[method].PPV())
	}
	b.WriteByte('\n')
	return b.String()
}

// Fig10 summarises learned-geohint properties (paper fig. 10): the RTT
// from the closest VP to each learned location, and the distance from
// each learned location to the airport holding the colliding IATA code.
type Fig10 struct {
	ClosestVPRTT CDF // ms, one sample per learned hint
	AirportKm    CDF // km, for hints colliding with an IATA code
}

// Format renders the figure's series.
func (f Fig10) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig10a closest-VP RTT to learned hints: %s\n", f.ClosestVPRTT.Format("ms"))
	fmt.Fprintf(&b, "fig10b distance to colliding-IATA airport: %s\n", f.AirportKm.Format("km"))
	return b.String()
}

// Fig11Bucket is one cumulative RTT bucket of learned-hint correctness.
type Fig11Bucket struct {
	MaxRTTms float64 // hints whose closest-VP RTT is <= this
	Correct  int
	Total    int
}

// Frac is the correctness fraction.
func (b Fig11Bucket) Frac() float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Correct) / float64(b.Total)
}

// Fig11 relates learned-hint correctness to VP proximity (paper fig. 11:
// <=7ms 90% correct, <=11ms 84%, <=16ms 80%).
type Fig11 struct{ Buckets []Fig11Bucket }

// Format renders the buckets.
func (f Fig11) Format() string {
	var b strings.Builder
	for _, bk := range f.Buckets {
		label := fmt.Sprintf("<=%.0fms", bk.MaxRTTms)
		if bk.MaxRTTms >= 1e9 {
			label = "all"
		}
		fmt.Fprintf(&b, "fig11 %-8s %3d/%-3d correct (%.0f%%)\n",
			label, bk.Correct, bk.Total, 100*bk.Frac())
	}
	return b.String()
}

// Ablation compares the pipeline with and without stage-4 hint learning
// (paper §6.1: 94.0% vs 82.4% correct; PPV 95.6% vs 94.5%).
type Ablation struct {
	With    MethodResult
	Without MethodResult
}

// ComputeAblation runs the hoiho side of fig. 9 twice.
func ComputeAblation(w *synth.World, withRes, withoutRes *core.Result) Ablation {
	with := ComputeFig9Hoiho(w, withRes)
	without := ComputeFig9Hoiho(w, withoutRes)
	return Ablation{With: with, Without: without}
}

// ComputeFig9Hoiho scores only the hoiho method over the world (used by
// the ablation to avoid re-running the baselines).
func ComputeFig9Hoiho(w *synth.World, res *core.Result) MethodResult {
	var out MethodResult
	for _, c := range fig9Cases(w) {
		loc, ok := hoihoAnswer(w, res, c)
		out.score(loc, ok, c.truth)
	}
	return out
}

// Format renders the ablation comparison.
func (a Ablation) Format() string { return a.formatAs("with", "without") }

// formatAs renders the comparison under the given column labels.
func (a Ablation) formatAs(with, without string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %8s\n", "", with, without)
	fmt.Fprintf(&b, "%-22s %7.1f%% %7.1f%%\n", "correct (TP%)", a.With.TPPct(), a.Without.TPPct())
	fmt.Fprintf(&b, "%-22s %7.1f%% %7.1f%%\n", "PPV", 100*a.With.PPV(), 100*a.Without.PPV())
	return b.String()
}

// ComputeTable5Multi aggregates learned 3-letter hints across several
// results — the paper pools its two IPv4 and two IPv6 ITDKs when
// counting learned geohints.
func ComputeTable5Multi(results []*core.Result, dict *geodict.Dictionary, minSuffixes int) Table5 {
	merged := &core.Result{NCs: make(map[string]*core.NamingConvention)}
	for wi, res := range results {
		for suffix, nc := range res.NCs {
			merged.NCs[fmt.Sprintf("%d/%s", wi, suffix)] = nc
		}
	}
	return ComputeTable5(merged, dict, minSuffixes)
}

// ComputeFig10Multi evaluates the learned hints of results[i] over
// worlds[i], pooled across worlds; one world is a one-element slice.
// The NCs map iteration order does not matter here: makeCDF sorts its
// samples, so the pooled CDFs are order-insensitive (the same holds for
// the bucket counting of ComputeFig11Multi).
func ComputeFig10Multi(worlds []*synth.World, results []*core.Result) Fig10 {
	var rtts, kms []float64
	for i, w := range worlds {
		//lint:ignore maporder order-insensitive: makeCDF sorts the pooled samples before use
		for _, nc := range results[i].NCs {
			for _, lh := range nc.Learned {
				rtts = append(rtts, closestVPRTTms(w, lh.Loc.Pos))
				if lh.Type == geodict.HintIATA {
					for _, a := range w.Dict.IATA(lh.Hint) {
						kms = append(kms, geo.DistanceKm(a.Loc.Pos, lh.Loc.Pos))
					}
				}
			}
		}
	}
	return Fig10{ClosestVPRTT: makeCDF(rtts), AirportKm: makeCDF(kms)}
}

// ComputeFig11Multi validates learned hints against generator truth,
// bucketed by the closest-VP RTT and pooled across worlds.
func ComputeFig11Multi(worlds []*synth.World, results []*core.Result) Fig11 {
	type sample struct {
		rtt     float64
		correct bool
	}
	var samples []sample
	for i, w := range worlds {
		//lint:ignore maporder order-insensitive: samples are only counted into RTT buckets, never emitted in slice order
		for suffix, nc := range results[i].NCs {
			truth := w.TruthHints[suffix]
			for _, lh := range nc.Learned {
				want, ok := truth[lh.Hint]
				correct := ok && Within(lh.Loc.Pos, want.Pos)
				samples = append(samples, sample{closestVPRTTms(w, lh.Loc.Pos), correct})
			}
		}
	}
	var f Fig11
	for _, max := range []float64{7, 11, 16, 1e9} {
		var b Fig11Bucket
		b.MaxRTTms = max
		for _, s := range samples {
			if s.rtt <= max {
				b.Total++
				if s.correct {
					b.Correct++
				}
			}
		}
		f.Buckets = append(f.Buckets, b)
	}
	return f
}
