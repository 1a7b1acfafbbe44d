package eval

import (
	"fmt"
	"strings"

	"hoiho/internal/core"
	"hoiho/internal/rtt"
	"hoiho/internal/synth"
)

// Experiment is one table, figure or ablation of the evaluation.
// geoeval prints it under -experiment <Name>, and the root package's
// BenchmarkExperiments/<Name> times it.
type Experiment struct {
	Name   string // the geoeval -experiment value
	Header string // printed as "== Header ==" above the rows
	// AllWorlds marks an experiment over every preset world; the rest
	// read only the first, ipv4-aug2020.
	AllWorlds bool
	Rows      func(s *Suite) (string, error)
}

// Experiments is the evaluation in the order geoeval prints it: the
// paper's tables and figures, its §6.1 ablation, then the design
// choices DESIGN.md §4 calls out for ablation.
var Experiments = []Experiment{
	{"table1", "Table 1: ITDK summaries", true, func(s *Suite) (string, error) {
		return ComputeTable1(s.Worlds).Format(), nil
	}},
	{"table2", "Table 2: coverage of usable NCs", true, func(s *Suite) (string, error) {
		return ComputeTable2(s.Worlds, s.Results).Format(), nil
	}},
	{"table3", "Table 3: classification of NCs", true, func(s *Suite) (string, error) {
		return ComputeTable3(s.Worlds, s.Results).Format(), nil
	}},
	{"table4", "Table 4: geohint types and annotations (ipv4-aug2020)", false, func(s *Suite) (string, error) {
		return ComputeTable4(s.Results[0]).Format(), nil
	}},
	{"table5", "Table 5: most frequently learned 3-letter geohints (all ITDKs)", true, func(s *Suite) (string, error) {
		return ComputeTable5Multi(s.Results, s.Worlds[0].Dict, 1).Format(), nil
	}},
	{"table6", "Table 6: validation of learned geohints", false, func(s *Suite) (string, error) {
		return ComputeTable6(s.Worlds[0], s.Results[0]).Format(), nil
	}},
	{"fig5", "Figure 5: ping vs traceroute RTTs", false, func(s *Suite) (string, error) {
		return ComputeFig5(s.Worlds[0]).Format(), nil
	}},
	{"fig9", "Figure 9: method comparison (40 km criterion)", false, func(s *Suite) (string, error) {
		return ComputeFig9(s.Worlds[0], s.Results[0]).Format(), nil
	}},
	{"fig10", "Figure 10: learned geohint properties (all ITDKs)", true, func(s *Suite) (string, error) {
		return ComputeFig10Multi(s.Worlds, s.Results).Format(), nil
	}},
	{"fig11", "Figure 11: learned hint correctness vs closest-VP RTT (all ITDKs)", true, func(s *Suite) (string, error) {
		return ComputeFig11Multi(s.Worlds, s.Results).Format(), nil
	}},
	{"ablation", "Ablation (§6.1): learned geohints on/off", false, func(s *Suite) (string, error) {
		w := s.Worlds[0]
		noLearn, err := s.relearn(func(c *core.Config) { c.LearnHints = false })
		if err != nil {
			return "", err
		}
		return ComputeAblation(w, s.Results[0], noLearn).Format(), nil
	}},
	// The DRoP-era constraint regime: the pipeline sees only
	// traceroute-observed RTTs instead of the followup ping campaign,
	// which is why the paper added dedicated pings (§3.3, fig. 5).
	{"ablation-trace", "Ablation: followup pings vs traceroute-only RTTs", false, func(s *Suite) (string, error) {
		w := s.Worlds[0]
		traceWorld := traceOnlyWorld(w)
		res, err := core.Run(traceWorld.Inputs(), s.Config)
		if err != nil {
			return "", err
		}
		a := Ablation{With: ComputeFig9Hoiho(w, s.Results[0]), Without: ComputeFig9Hoiho(traceWorld, res)}
		return a.formatAs("pings", "trace-only"), nil
	}},
	// Stage 4's facility/population candidate priors (§5.4) off.
	{"ablation-priors", "Ablation: facility/population ranking priors", false, func(s *Suite) (string, error) {
		w := s.Worlds[0]
		res, err := s.relearn(func(c *core.Config) {
			c.LearnRankFacility = false
			c.LearnRankPopulation = false
		})
		if err != nil {
			return "", err
		}
		with, without := ComputeTable6(w, s.Results[0]), ComputeTable6(w, res)
		return fmt.Sprintf("with priors:    %d/%d learned hints verified\nwithout priors: %d/%d learned hints verified\n",
			with.Correct, with.Total, without.Correct, without.Total), nil
	}},
	// The good-PPV threshold of §5.5, swept: the classification mix.
	// Classification reads only a convention's tally, so the sweep
	// reclassifies the learned conventions instead of re-learning.
	{"ablation-ppv", "Ablation: NC usability PPV threshold sweep", false, func(s *Suite) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "%-12s %6s %10s %6s\n", "good-PPV", "good", "promising", "poor")
		for _, goodPPV := range []float64{0.80, 0.90, 0.95, 0.99} {
			var n [core.Good + 1]int
			for _, nc := range s.Results[0].NCs {
				n[core.Classify(nc.Tally, goodPPV)]++
			}
			fmt.Fprintf(&b, "%-12.2f %6d %10d %6d\n", goodPPV, n[core.Good], n[core.Promising], n[core.Poor])
		}
		return b.String(), nil
	}},
	// The congruent-router requirement for learning a hint without an
	// annotation (§5.4), swept: hints learned and verified.
	{"ablation-congruence", "Ablation: congruent-router threshold sweep", false, func(s *Suite) (string, error) {
		w := s.Worlds[0]
		var b strings.Builder
		fmt.Fprintf(&b, "%-12s %8s %10s\n", "threshold", "learned", "verified")
		for _, n := range []int{1, 2, 3, 5} {
			res, err := s.relearn(func(c *core.Config) { c.LearnCongruentNoCC = n })
			if err != nil {
				return "", err
			}
			t6 := ComputeTable6(w, res)
			fmt.Fprintf(&b, "%-12d %8d %6d/%d\n", n, t6.Total, t6.Correct, t6.Total)
		}
		return b.String(), nil
	}},
}

// traceOnlyWorld clones a world with its ping matrix replaced by the
// traceroute observations.
func traceOnlyWorld(w *synth.World) *synth.World {
	m := rtt.NewMatrix(w.Matrix.VPs())
	for _, r := range w.Corpus.Routers {
		for _, me := range w.Matrix.TraceMeasurements(r.ID) {
			_ = m.SetPing(r.ID, me.VP.Name, me.Sample)
			_ = m.SetTrace(r.ID, me.VP.Name, me.Sample)
		}
	}
	clone := *w
	clone.Matrix = m
	return &clone
}
