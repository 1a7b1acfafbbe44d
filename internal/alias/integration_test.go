package alias

import (
	"math/rand"
	"net/netip"
	"testing"

	"hoiho/internal/synth"
)

// TestReconstructSynthCorpus closes the loop the paper's toolchain
// implies: the synthetic world's routers (ground truth) are turned into
// simulated devices with shared IP-ID counters, and alias resolution
// must reconstruct the router-level corpus from interface-level probing
// — the role MIDAR plays in building the ITDK (§5.1.3).
func TestReconstructSynthCorpus(t *testing.T) {
	p, err := synth.ITDKPreset("ipv4-aug2020")
	if err != nil {
		t.Fatal(err)
	}
	p.Operators = 4
	p.Tiny = 0
	p.Noise = 0
	p.VPs = 8
	p.SpoofVPs = 0
	p.AnonymousFrac = 0
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	var devices []*SimDevice
	truth := make(map[netip.Addr]string) // addr -> router ID
	multi := 0
	for _, r := range w.Corpus.Routers {
		if len(r.Interfaces) < 2 {
			continue // single-interface routers resolve trivially
		}
		multi++
		d := &SimDevice{
			Base:      uint16(rng.Intn(65536)),
			Rate:      20 + rng.Float64()*500,
			JitterIDs: 2,
		}
		for _, ifc := range r.Interfaces {
			d.Addrs = append(d.Addrs, ifc.Addr)
			truth[ifc.Addr] = r.ID
		}
		devices = append(devices, d)
		if multi >= 30 {
			break // keep the pairwise phase fast
		}
	}
	if multi < 10 {
		t.Fatalf("too few multi-interface routers: %d", multi)
	}

	prober := NewSimProber(devices, 7, 0.01)
	res := Resolve(prober, prober.Addrs())

	// No inferred router may span two true routers.
	reconstructed := 0
	for _, g := range res.Routers {
		first := truth[g[0]]
		for _, a := range g[1:] {
			if truth[a] != first {
				t.Fatalf("false alias: group %v spans %s and %s", g, first, truth[a])
			}
		}
		reconstructed++
	}
	// The vast majority of true routers must be reconstructed whole
	// (probe loss may fragment a few).
	if reconstructed < multi*8/10 {
		t.Errorf("reconstructed %d of %d routers", reconstructed, multi)
	}
}
