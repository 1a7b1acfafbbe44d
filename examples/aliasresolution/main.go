// Aliasresolution demonstrates the substrate beneath the ITDK (paper
// §5.1.3): inferring which interface addresses belong to the same
// router. Simulated devices share a monotonic IP-ID counter across
// their interfaces; the MIDAR-style resolver probes the addresses,
// estimates counter velocities, applies the Monotonic Bounds Test to
// candidate pairs, corroborates survivors at a distant time, and prints
// the recovered routers.
//
// Run with:
//
//	go run ./examples/aliasresolution
package main

import (
	"fmt"
	"math/rand"
	"net/netip"

	"hoiho/internal/alias"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// Ground truth: routers with 2-4 interfaces, plus hostile cases the
	// resolver must reject — a device with random IP-IDs and one that
	// answers constant zero.
	var devices []*alias.SimDevice
	truth := make(map[netip.Addr]int)
	n := 1
	mk := func(k int, random, constant bool) {
		d := &alias.SimDevice{
			Base: uint16(rng.Intn(65536)), Rate: 20 + rng.Float64()*400,
			JitterIDs: 2, RandomID: random, ConstantID: constant,
		}
		for j := 0; j < k; j++ {
			a := netip.MustParseAddr(fmt.Sprintf("198.51.100.%d", n))
			d.Addrs = append(d.Addrs, a)
			truth[a] = len(devices)
			n++
		}
		devices = append(devices, d)
	}
	for i := 0; i < 8; i++ {
		mk(2+i%3, false, false)
	}
	mk(2, true, false) // random IP-IDs (modern stack)
	mk(2, false, true) // constant zero

	prober := alias.NewSimProber(devices, 23, 0.02)
	res := alias.Resolve(prober, prober.Addrs())

	fmt.Printf("probed %d addresses from %d devices\n\n", len(prober.Addrs()), len(devices))
	correct := 0
	for i, g := range res.Routers {
		dev := truth[g[0]]
		ok := true
		for _, a := range g[1:] {
			if truth[a] != dev {
				ok = false
			}
		}
		verdict := "WRONG"
		if ok && len(g) == len(devices[dev].Addrs) {
			verdict = "exact"
			correct++
		} else if ok {
			verdict = "partial"
		}
		fmt.Printf("router %d: %v  (%s, true device %d)\n", i+1, g, verdict, dev)
	}
	fmt.Printf("\nsingletons: %d, discarded (random/constant/silent IP-IDs): %d\n",
		len(res.Singletons), len(res.Discarded))
	fmt.Printf("reconstructed %d of %d honest devices exactly\n", correct, 8)
}
