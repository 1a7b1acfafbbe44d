package tbg

import (
	"sync"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/eval"
	"hoiho/internal/geo"
	"hoiho/internal/synth"
)

var (
	worldOnce    sync.Once
	cachedWorld  *synth.World
	cachedRes    *core.Result
	cachedAnchor Anchors
	worldErr     error
)

func world(t *testing.T) (*synth.World, *core.Result, Anchors) {
	t.Helper()
	worldOnce.Do(func() {
		var s *eval.Suite
		if s, worldErr = eval.Run(eval.PresetNames[:1], 0.5, core.DefaultConfig()); worldErr == nil {
			cachedWorld, cachedRes = s.Worlds[0], s.Results[0]
			cachedAnchor = BuildAnchors(cachedWorld.Inputs(), cachedRes, cachedWorld.PSL)
		}
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return cachedWorld, cachedRes, cachedAnchor
}

func TestBuildAnchors(t *testing.T) {
	w, _, anchors := world(t)
	if len(anchors) < 50 {
		t.Fatalf("anchors = %d, want many", len(anchors))
	}
	// Anchors must be accurate: located within 40km of truth.
	wrong := 0
	for id, loc := range anchors {
		truth := w.TruthRouter[id]
		if truth == nil {
			continue
		}
		if geo.DistanceKm(loc.Pos, truth.Pos) > eval.TruePositiveKm {
			wrong++
		}
	}
	frac := float64(wrong) / float64(len(anchors))
	if frac > 0.1 {
		t.Errorf("%.0f%% of anchors are wrong (%d of %d)", 100*frac, wrong, len(anchors))
	}
}

func TestTBGTightensEstimates(t *testing.T) {
	w, _, anchors := world(t)

	// Evaluate unanchored routers that have at least one anchored
	// neighbor: TBG with anchors should (weakly) shrink the feasible
	// region vs. VP constraints alone, and keep truth feasible.
	tested, improved := 0, 0
	var errSum, errSumVPOnly float64
	for _, r := range w.Corpus.Routers {
		if _, isAnchor := anchors[r.ID]; isAnchor {
			continue
		}
		hasAnchorNbr := false
		for _, nbr := range w.Corpus.Neighbors(r.ID) {
			if _, ok := anchors[nbr]; ok {
				hasAnchorNbr = true
				break
			}
		}
		if !hasAnchorNbr || !w.Matrix.HasPing(r.ID) {
			continue
		}
		truth := w.TruthRouter[r.ID]

		full, ok := Geolocate(w.Corpus, w.Matrix, anchors, r.ID)
		if !ok || full.AnchorLinks == 0 {
			continue
		}
		vpOnly, ok2 := Geolocate(w.Corpus, w.Matrix, Anchors{}, r.ID)
		if !ok2 {
			continue
		}
		tested++
		errSum += geo.DistanceKm(full.Region.Center, truth.Pos)
		errSumVPOnly += geo.DistanceKm(vpOnly.Region.Center, truth.Pos)
		if full.Region.ErrorRadiusKm <= vpOnly.Region.ErrorRadiusKm {
			improved++
		}
		if tested >= 40 {
			break
		}
	}
	if tested < 10 {
		t.Fatalf("too few TBG-eligible routers tested: %d", tested)
	}
	if float64(improved)/float64(tested) < 0.8 {
		t.Errorf("anchors shrank the region for only %d/%d targets", improved, tested)
	}
	if errSum >= errSumVPOnly {
		t.Errorf("mean error with anchors %.0f should beat VP-only %.0f",
			errSum/float64(tested), errSumVPOnly/float64(tested))
	}
}

func TestGeolocateNoConstraints(t *testing.T) {
	w, _, anchors := world(t)
	if _, ok := Geolocate(w.Corpus, w.Matrix, anchors, "no-such-router"); ok {
		t.Error("unknown router should not geolocate")
	}
}

func TestLinkBound(t *testing.T) {
	w, _, _ := world(t)
	// A router and its neighbor: the bound must be positive and finite.
	for _, l := range w.Corpus.Links {
		if !w.Matrix.HasPing(l.A) || !w.Matrix.HasPing(l.B) {
			continue
		}
		bound, ok := linkBoundMs(w.Matrix, l.A, l.B, 2.0)
		if !ok {
			continue
		}
		if bound <= 0 {
			t.Fatalf("bound = %f", bound)
		}
		return
	}
	t.Skip("no pingable link pair found")
}
