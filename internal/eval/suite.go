package eval

import (
	"fmt"

	"hoiho/internal/core"
	"hoiho/internal/synth"
)

// PresetNames are the four ITDK-shaped worlds the paper evaluates.
var PresetNames = []string{"ipv4-aug2020", "ipv4-mar2021", "ipv6-nov2020", "ipv6-mar2021"}

// Suite bundles generated worlds with their pipeline results.
type Suite struct {
	Worlds  []*synth.World
	Results []*core.Result
	// Config is the pipeline configuration the results were learned
	// with; the ablations re-learn with modified copies of it.
	Config core.Config
}

// Run generates each named world (scaled by scale, 1.0 = preset size),
// cleans spoofing VPs, and runs the pipeline with cfg. World generation
// is unaffected by cfg, so results differ across configurations only as
// the pipeline thresholds dictate. Callers without threshold overrides
// pass core.DefaultConfig().
func Run(names []string, scale float64, cfg core.Config) (*Suite, error) {
	if scale <= 0 {
		scale = 1
	}
	s := &Suite{Config: cfg}
	for _, name := range names {
		p, err := synth.ITDKPreset(name)
		if err != nil {
			return nil, err
		}
		p.Operators = max1(int(float64(p.Operators) * scale))
		p.Noise = int(float64(p.Noise) * scale)
		p.VPs = max1(int(float64(p.VPs) * scale))
		if p.SpoofVPs >= p.VPs {
			p.SpoofVPs = 0
		}
		w, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		w.CleanSpoofers()
		res, err := core.Run(w.Inputs(), cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: pipeline on %s: %w", name, err)
		}
		s.Worlds = append(s.Worlds, w)
		s.Results = append(s.Results, res)
	}
	return s, nil
}

// relearn runs the pipeline on the first world again, with the suite's
// configuration as edit changes it: one ablated setting.
func (s *Suite) relearn(edit func(*core.Config)) (*core.Result, error) {
	cfg := s.Config
	edit(&cfg)
	return core.Run(s.Worlds[0].Inputs(), cfg)
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
