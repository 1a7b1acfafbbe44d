// Package geo provides the geodesic primitives that the Hoiho geolocation
// pipeline relies on: great-circle distances, speed-of-light delay bounds
// through optical fibre, and constraint-based geolocation (CBG) style
// multilateration over round-trip-time constraints.
//
// All distances are in kilometres and all delays in milliseconds unless a
// name says otherwise. Latitudes and longitudes are in decimal degrees,
// positive north and east.
package geo

import (
	"errors"
	"fmt"
	"math"
)

const (
	// EarthRadiusKm is the mean radius of the Earth used for great-circle
	// computations, in kilometres.
	EarthRadiusKm = 6371.0

	// SpeedOfLightKmPerMs is the speed of light in a vacuum expressed in
	// kilometres per millisecond.
	SpeedOfLightKmPerMs = 299792.458 / 1e6 * 1e3 // 299.792458 km/ms

	// FibreFactor is the fraction of c at which signals propagate in an
	// optical fibre (refractive index ~1.5), the constant used by CBG and
	// by the paper when computing theoretical best-case RTTs.
	FibreFactor = 2.0 / 3.0

	// FibreKmPerMs is the one-way propagation speed through fibre in
	// kilometres per millisecond.
	FibreKmPerMs = SpeedOfLightKmPerMs * FibreFactor
)

// LatLong is a point on the Earth's surface in decimal degrees.
type LatLong struct {
	Lat  float64
	Long float64
}

// Valid reports whether the coordinates are within the legal ranges
// [-90,90] for latitude and [-180,180] for longitude.
func (p LatLong) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Long >= -180 && p.Long <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Long)
}

// String renders the point as "lat,long" with four decimal places.
func (p LatLong) String() string {
	return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Long)
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// DistanceKm returns the great-circle distance between a and b in
// kilometres, computed with the haversine formula.
func DistanceKm(a, b LatLong) float64 {
	lat1, lon1 := radians(a.Lat), radians(a.Long)
	lat2, lon2 := radians(b.Lat), radians(b.Long)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	// Clamp to [0,1] to guard against floating point drift before Asin.
	if h > 1 {
		h = 1
	} else if h < 0 {
		h = 0
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// MinRTTms returns the theoretical best-case round-trip time in
// milliseconds between two points, assuming light propagating through a
// great-circle optical fibre at FibreFactor of c. This is the bound the
// paper uses to decide whether a candidate geohint is RTT-consistent.
func MinRTTms(a, b LatLong) float64 {
	return RTTForDistance(DistanceKm(a, b))
}

// RTTForDistance converts a one-way great-circle distance in kilometres to
// the minimum feasible RTT in milliseconds through fibre.
func RTTForDistance(km float64) float64 {
	return 2 * km / FibreKmPerMs
}

// MaxDistanceKm converts a measured RTT in milliseconds into the maximum
// one-way distance in kilometres that the responding host can be from the
// prober, assuming propagation through fibre at FibreFactor of c.
func MaxDistanceKm(rttMs float64) float64 {
	if rttMs < 0 {
		return 0
	}
	return rttMs * FibreKmPerMs / 2
}

// RTTConsistent reports whether a measured RTT between vp and candidate is
// physically feasible: the measured RTT must be no smaller than the
// theoretical best-case RTT. A small tolerance (in milliseconds) absorbs
// clock granularity in measurement systems.
func RTTConsistent(vp, candidate LatLong, measuredMs, toleranceMs float64) bool {
	return measuredMs+toleranceMs >= MinRTTms(vp, candidate)
}

// Destination returns the point reached by travelling distanceKm from
// origin along the given initial bearing (degrees clockwise from north).
func Destination(origin LatLong, bearingDeg, distanceKm float64) LatLong {
	lat1 := radians(origin.Lat)
	lon1 := radians(origin.Long)
	brg := radians(bearingDeg)
	d := distanceKm / EarthRadiusKm

	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) +
		math.Cos(lat1)*math.Sin(d)*math.Cos(brg))
	lon2 := lon1 + math.Atan2(math.Sin(brg)*math.Sin(d)*math.Cos(lat1),
		math.Cos(d)-math.Sin(lat1)*math.Sin(lat2))

	// Normalise longitude to [-180, 180).
	lonDeg := math.Mod(degrees(lon2)+540, 360) - 180
	return LatLong{Lat: degrees(lat2), Long: lonDeg}
}

// Centroid returns the spherical centroid of the given points. It returns
// an error when points is empty or when the points are spread so evenly
// that the centroid is undefined (the mean vector vanishes).
func Centroid(points []LatLong) (LatLong, error) {
	if len(points) == 0 {
		return LatLong{}, errors.New("geo: centroid of no points")
	}
	var x, y, z float64
	for _, p := range points {
		lat, lon := radians(p.Lat), radians(p.Long)
		x += math.Cos(lat) * math.Cos(lon)
		y += math.Cos(lat) * math.Sin(lon)
		z += math.Sin(lat)
	}
	n := float64(len(points))
	x, y, z = x/n, y/n, z/n
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm < 1e-9 {
		return LatLong{}, errors.New("geo: centroid undefined (antipodal spread)")
	}
	lat := math.Atan2(z, math.Sqrt(x*x+y*y))
	lon := math.Atan2(y, x)
	return LatLong{Lat: degrees(lat), Long: degrees(lon)}, nil
}
