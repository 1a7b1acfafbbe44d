package rtt

import (
	"math/rand"

	"hoiho/internal/geo"
)

// DelayModel parameterises the synthetic probe campaign that substitutes
// for the Ark measurement infrastructure. RTTs are generated as
//
//	rtt = minRTT(vp, router) * inflation + lastMile + jitter
//
// where inflation models route stretch (fibre does not follow great
// circles), lastMile models access/queueing floors, and jitter adds
// per-probe noise. Generated RTTs are never below the speed-of-light
// minimum for honest VPs, so the RTT-consistency predicate holds for
// true locations by construction — the property the paper's method
// relies on.
type DelayModel struct {
	InflationMin float64 // minimum multiplicative path stretch (>= 1)
	InflationMax float64 // maximum multiplicative path stretch
	LastMileMs   float64 // additive floor per measurement
	JitterMs     float64 // maximum additive per-probe noise

	// Response probabilities per probe method, tried in order
	// (ICMP, then UDP, then TCP), matching the paper's campaign.
	RespondICMP float64
	RespondUDP  float64
	RespondTCP  float64

	// Samples is the number of probes per router/VP pair; the minimum is
	// recorded (paper: minimum of three).
	Samples int
}

// DefaultDelayModel returns the model used for the reproduction corpora:
// moderate path stretch, a 1 ms floor, 2 ms jitter, ~82% of routers
// responsive (the paper's IPv4 figure) mostly via ICMP.
func DefaultDelayModel() DelayModel {
	return DelayModel{
		InflationMin: 1.15,
		InflationMax: 2.2,
		LastMileMs:   1.0,
		JitterMs:     2.0,
		RespondICMP:  0.70,
		RespondUDP:   0.25,
		RespondTCP:   0.60,
		Samples:      3,
	}
}

// sampleRTT draws one probe RTT between two points.
func (dm *DelayModel) sampleRTT(rng *rand.Rand, from, to geo.LatLong) float64 {
	minRTT := geo.MinRTTms(from, to)
	inflation := dm.InflationMin + rng.Float64()*(dm.InflationMax-dm.InflationMin)
	return minRTT*inflation + dm.LastMileMs + rng.Float64()*dm.JitterMs
}

// MinOfN draws n probes and returns the minimum RTT, mirroring the
// campaign's min-of-three filtering.
func (dm *DelayModel) MinOfN(rng *rand.Rand, from, to geo.LatLong, n int) float64 {
	if n < 1 {
		n = 1
	}
	best := dm.sampleRTT(rng, from, to)
	for i := 1; i < n; i++ {
		if r := dm.sampleRTT(rng, from, to); r < best {
			best = r
		}
	}
	return best
}

// Responsiveness describes which probe method a router answers, drawn
// once per router so that a router unresponsive to ICMP stays
// unresponsive to ICMP from every VP.
type Responsiveness struct {
	ICMP bool
	UDP  bool
	TCP  bool
}

// DrawResponsiveness samples a router's probe-method responsiveness.
func (dm *DelayModel) DrawResponsiveness(rng *rand.Rand) Responsiveness {
	return Responsiveness{
		ICMP: rng.Float64() < dm.RespondICMP,
		UDP:  rng.Float64() < dm.RespondUDP,
		TCP:  rng.Float64() < dm.RespondTCP,
	}
}

// Probe simulates the campaign's probing of one router from one VP:
// ICMP first, then UDP, then TCP (the paper used TCP only when ICMP and
// UDP failed, to minimise impact). It returns the sample and true when
// the router answered any method. A spoofing VP returns a bogus 1-2 ms
// TCP sample even for unresponsive routers.
func (dm *DelayModel) Probe(rng *rand.Rand, vp *VP, routerPos geo.LatLong, resp Responsiveness) (Sample, bool) {
	switch {
	case resp.ICMP:
		return Sample{RTTms: dm.MinOfN(rng, vp.Pos, routerPos, dm.Samples), Method: ICMP}, true
	case resp.UDP:
		return Sample{RTTms: dm.MinOfN(rng, vp.Pos, routerPos, dm.Samples), Method: UDP}, true
	case vp.SpoofTCP:
		// The VP's access router answers the TCP ACK itself.
		return Sample{RTTms: 1 + rng.Float64(), Method: TCP}, true
	case resp.TCP:
		return Sample{RTTms: dm.MinOfN(rng, vp.Pos, routerPos, dm.Samples), Method: TCP}, true
	default:
		return Sample{}, false
	}
}

// TraceObservation models the RTT recorded when a traceroute from vp
// happened to traverse the router: substantially more inflated than a
// direct ping (the paper measured a 4.25x median gap, fig. 5a).
func (dm *DelayModel) TraceObservation(rng *rand.Rand, vp *VP, routerPos geo.LatLong) Sample {
	base := dm.MinOfN(rng, vp.Pos, routerPos, 1)
	// Traceroute RTTs include detours through the destination-ward path
	// and router control-plane generation latency.
	inflate := 2.0 + rng.Float64()*4.0
	return Sample{RTTms: base*inflate + 2.0, Method: ICMP}
}
