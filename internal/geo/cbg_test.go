package geo

import (
	"math"
	"testing"
)

func TestConstraintContains(t *testing.T) {
	c := Constraint{VP: london, RTTms: MinRTTms(london, newYork) + 10}
	if !c.Contains(newYork) {
		t.Error("new york should be within a constraint with slack")
	}
	tight := Constraint{VP: london, RTTms: 1}
	if tight.Contains(newYork) {
		t.Error("new york should be outside a 1ms constraint from london")
	}
}

func TestMultilaterateSingleConstraint(t *testing.T) {
	cs := []Constraint{{VP: london, RTTms: 10}}
	r, err := Multilaterate(cs, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Centroid of a disc around London should be near London.
	if DistanceKm(r.Center, london) > 100 {
		t.Errorf("center %v too far from london", r.Center)
	}
	if r.ErrorRadiusKm > MaxDistanceKm(10)+50 {
		t.Errorf("error radius %.1f exceeds disc radius", r.ErrorRadiusKm)
	}
}

func TestMultilaterateIntersection(t *testing.T) {
	// Target at the great-circle midpoint of two VPs (2,785 km from
	// each); constraints just covering it.
	target := LatLong{52.3684, -41.2903}
	rtt := MinRTTms(london, target) * 1.2
	cs := []Constraint{
		{VP: london, RTTms: rtt},
		{VP: newYork, RTTms: MinRTTms(newYork, target) * 1.2},
	}
	r, err := Multilaterate(cs, 32)
	if err != nil {
		t.Fatal(err)
	}
	if DistanceKm(r.Center, target) > 800 {
		t.Errorf("center %v is %.0fkm from target %v", r.Center, DistanceKm(r.Center, target), target)
	}
	if !Feasible(r.Center, cs) {
		t.Error("estimated center violates its own constraints")
	}
}

func TestMultilaterateInfeasible(t *testing.T) {
	// Two tiny discs on opposite sides of the planet cannot intersect.
	cs := []Constraint{
		{VP: london, RTTms: 1},
		{VP: sydney, RTTms: 1},
	}
	if _, err := Multilaterate(cs, 16); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestMultilaterateNoConstraints(t *testing.T) {
	if _, err := Multilaterate(nil, 16); err == nil {
		t.Error("want error for empty constraints")
	}
}

func TestMultilaterateZeroRTT(t *testing.T) {
	cs := []Constraint{{VP: tokyo, RTTms: 0}}
	r, err := Multilaterate(cs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if DistanceKm(r.Center, tokyo) > 1e-6 {
		t.Errorf("zero RTT should pin target at VP, got %v", r.Center)
	}
}

func TestMultilaterateZeroRTTConflict(t *testing.T) {
	cs := []Constraint{
		{VP: tokyo, RTTms: 0},
		{VP: london, RTTms: 1},
	}
	if _, err := Multilaterate(cs, 16); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestMultilaterateTighterConstraintsShrinkRegion(t *testing.T) {
	loose := []Constraint{{VP: london, RTTms: 40}}
	tight := []Constraint{{VP: london, RTTms: 10}}
	rl, err := Multilaterate(loose, 24)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Multilaterate(tight, 24)
	if err != nil {
		t.Fatal(err)
	}
	if rt.AreaKm2 >= rl.AreaKm2 {
		t.Errorf("tight area %.0f should be < loose area %.0f", rt.AreaKm2, rl.AreaKm2)
	}
	if rt.ErrorRadiusKm >= rl.ErrorRadiusKm {
		t.Errorf("tight error radius %.0f should be < loose %.0f", rt.ErrorRadiusKm, rl.ErrorRadiusKm)
	}
}

func TestFeasible(t *testing.T) {
	cs := []Constraint{
		{VP: london, RTTms: 100},
		{VP: newYork, RTTms: 100},
	}
	if !Feasible(LatLong{52.3684, -41.2903}, cs) { // the London–New York midpoint
		t.Error("midpoint should satisfy generous constraints")
	}
	if Feasible(sydney, []Constraint{{VP: london, RTTms: 1}}) {
		t.Error("sydney cannot satisfy a 1ms constraint from london")
	}
}

func TestMultilaterateSamplesClamped(t *testing.T) {
	// samplesPerAxis below 8 must be clamped rather than panicking.
	cs := []Constraint{{VP: london, RTTms: 10}}
	if _, err := Multilaterate(cs, 1); err != nil {
		t.Fatalf("clamped sampling failed: %v", err)
	}
}

func TestRegionErrorRadiusGrowsWithRTT(t *testing.T) {
	var prev float64
	for _, rtt := range []float64{5, 15, 45} {
		r, err := Multilaterate([]Constraint{{VP: ashburn, RTTms: rtt}}, 24)
		if err != nil {
			t.Fatal(err)
		}
		if r.ErrorRadiusKm < prev {
			t.Errorf("error radius should grow with RTT: %.0f after %.0f", r.ErrorRadiusKm, prev)
		}
		prev = r.ErrorRadiusKm
	}
	if prev > math.Pi*EarthRadiusKm {
		t.Errorf("error radius %.0f exceeds planetary bound", prev)
	}
}
