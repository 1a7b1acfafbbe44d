package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Well-known reference points used throughout the tests.
var (
	london    = LatLong{51.5074, -0.1278}
	newYork   = LatLong{40.7128, -74.0060}
	sydney    = LatLong{-33.8688, 151.2093}
	tokyo     = LatLong{35.6762, 139.6503}
	ashburn   = LatLong{39.0438, -77.4874}
	nashua    = LatLong{42.7654, -71.4676}
	sanFran   = LatLong{37.7749, -122.4194}
	nullPoint = LatLong{0, 0}
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name string
		a, b LatLong
		want float64 // km
		tol  float64
	}{
		{"london-newyork", london, newYork, 5570, 30},
		{"london-sydney", london, sydney, 16993, 60},
		{"tokyo-sanfran", tokyo, sanFran, 8280, 50},
		{"ashburn-nashua", ashburn, nashua, 657, 15},
		{"same-point", london, london, 0, 1e-9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := DistanceKm(c.a, c.b)
			if math.Abs(got-c.want) > c.tol {
				t.Errorf("DistanceKm(%v,%v) = %.1f, want %.1f±%.1f", c.a, c.b, got, c.want, c.tol)
			}
		})
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := LatLong{clampLat(lat1), clampLon(lon1)}
		b := LatLong{clampLat(lat2), clampLon(lon2)}
		d1 := DistanceKm(a, b)
		d2 := DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceNonNegativeAndBounded(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := LatLong{clampLat(lat1), clampLon(lon1)}
		b := LatLong{clampLat(lat2), clampLon(lon2)}
		d := DistanceKm(a, b)
		// Max possible great-circle distance is half the circumference.
		return d >= 0 && d <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := LatLong{clampLat(lat1), clampLon(lon1)}
		b := LatLong{clampLat(lat2), clampLon(lon2)}
		c := LatLong{clampLat(lat3), clampLon(lon3)}
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdentityOfIndiscernibles(t *testing.T) {
	f := func(lat, lon float64) bool {
		p := LatLong{clampLat(lat), clampLon(lon)}
		return DistanceKm(p, p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 180) - 90
}

func clampLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 360) - 180
}

func TestMinRTT(t *testing.T) {
	// London to New York: ~5570 km -> RTT = 2*5570 / (199.86 km/ms) ≈ 55.7ms.
	rtt := MinRTTms(london, newYork)
	if rtt < 54 || rtt > 58 {
		t.Errorf("MinRTTms(london,newYork) = %.1f, want ≈55.7", rtt)
	}
	if MinRTTms(london, london) != 0 {
		t.Errorf("MinRTTms of identical points should be 0")
	}
}

func TestRTTDistanceRoundTrip(t *testing.T) {
	f := func(km float64) bool {
		km = math.Abs(math.Mod(km, 20000))
		if math.IsNaN(km) {
			km = 0
		}
		rtt := RTTForDistance(km)
		back := MaxDistanceKm(rtt)
		return math.Abs(back-km) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxDistanceNegativeRTT(t *testing.T) {
	if got := MaxDistanceKm(-5); got != 0 {
		t.Errorf("MaxDistanceKm(-5) = %v, want 0", got)
	}
}

func TestRTTConsistent(t *testing.T) {
	minRTT := MinRTTms(london, newYork) // ≈55.7ms
	if RTTConsistent(london, newYork, minRTT-5, 0) {
		t.Errorf("RTT %0.f ms should be infeasible for london-newyork", minRTT-5)
	}
	if !RTTConsistent(london, newYork, minRTT+5, 0) {
		t.Errorf("RTT %0.f ms should be feasible for london-newyork", minRTT+5)
	}
	// Tolerance rescues borderline measurements.
	if !RTTConsistent(london, newYork, minRTT-0.5, 1.0) {
		t.Errorf("tolerance should make borderline RTT feasible")
	}
}

func TestAreaForRTT(t *testing.T) {
	// 16ms -> ~1600km radius (paper: "within 1,600km").
	r := MaxDistanceKm(16)
	if r < 1500 || r < 0 || r > 1700 {
		t.Errorf("MaxDistanceKm(16) = %.0f, want ≈1600", r)
	}
	a16 := AreaForRTTkm2(16)
	a68 := AreaForRTTkm2(68)
	ratio := a68 / a16
	// Paper: 68ms vs 16ms is a 4.25x radius ratio and ~18x area... the paper
	// says 180x larger which includes their probing radius conventions; pure
	// πr² with RTT ratio 4.25 gives 18.06x.
	if math.Abs(ratio-18.06) > 0.2 {
		t.Errorf("area ratio 68ms/16ms = %.2f, want ≈18.06", ratio)
	}
}

func TestDestinationAndBack(t *testing.T) {
	p := Destination(london, 90, 1000)
	d := DistanceKm(london, p)
	if math.Abs(d-1000) > 1 {
		t.Errorf("Destination 1000km east: distance back %.1f", d)
	}
}

func TestDestinationProperty(t *testing.T) {
	f := func(lat, lon, brg, dist float64) bool {
		origin := LatLong{clampLat(lat), clampLon(lon)}
		b := math.Mod(math.Abs(brg), 360)
		km := math.Mod(math.Abs(dist), 19000)
		if math.IsNaN(b) || math.IsNaN(km) {
			return true
		}
		p := Destination(origin, b, km)
		if !p.Valid() {
			return false
		}
		return math.Abs(DistanceKm(origin, p)-km) < 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCentroid(t *testing.T) {
	c, err := Centroid([]LatLong{{10, 10}, {10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Lat-10) > 1e-6 || math.Abs(c.Long-10) > 1e-6 {
		t.Errorf("centroid of identical points = %v", c)
	}

	if _, err := Centroid(nil); err == nil {
		t.Error("centroid of empty slice should error")
	}

	// Antipodal points have an undefined centroid.
	if _, err := Centroid([]LatLong{{0, 0}, {0, 180}}); err == nil {
		t.Error("centroid of antipodal points should error")
	}
}

func TestCentroidSymmetricPoints(t *testing.T) {
	c, err := Centroid([]LatLong{{10, 0}, {-10, 0}, {0, 10}, {0, -10}})
	if err != nil {
		t.Fatal(err)
	}
	if DistanceKm(c, nullPoint) > 1 {
		t.Errorf("centroid of symmetric ring = %v, want ≈(0,0)", c)
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		p    LatLong
		want bool
	}{
		{LatLong{0, 0}, true},
		{LatLong{90, 180}, true},
		{LatLong{-90, -180}, true},
		{LatLong{91, 0}, false},
		{LatLong{0, 181}, false},
		{LatLong{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("%v.Valid() = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestLatLongString(t *testing.T) {
	s := LatLong{39.0438, -77.4874}.String()
	if s != "39.0438,-77.4874" {
		t.Errorf("String() = %q", s)
	}
}
