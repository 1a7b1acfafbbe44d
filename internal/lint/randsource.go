package lint

import (
	"go/ast"
	"strings"
)

// Randsource flags use of math/rand's global source. The pipeline's
// synthetic corpora, RTT simulation, and alias resolution must be
// reproducible from a seed: rand.Intn and friends draw from a shared,
// non-deterministically interleaved source, so identical runs diverge.
// Constructing an explicit seeded source — rand.New(rand.NewSource(s))
// — is the sanctioned pattern and is never flagged.
//
// The simulation packages that own randomness (internal/synth,
// internal/rtt, internal/alias) are exempt wholesale, as are test
// files; everywhere else a global-source draw is a finding.
func Randsource() *Analyzer {
	return &Analyzer{
		Name: "randsource",
		Doc:  "math/rand global source outside the seeded simulation packages",
		Run:  runRandsource,
	}
}

// randsourceExempt lists module-relative directories where randomness
// is owned and seeded at the package boundary.
var randsourceExempt = []string{
	"internal/synth",
	"internal/rtt",
	"internal/alias",
}

func runRandsource(pass *Pass) {
	for _, dir := range randsourceExempt {
		if pass.Pkg.Dir == dir || strings.HasPrefix(pass.Pkg.Dir, dir+"/") {
			return
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name := pass.callee(call)
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			switch name {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
				// Explicit-source construction: the seeded pattern.
				return true
			}
			pass.Reportf(call, "rand.%s draws from math/rand's global source; use a seeded rand.New(rand.NewSource(...)) so runs are reproducible", name)
			return true
		})
	}
}
