package asn

import (
	"fmt"
	"net/netip"
	"testing"

	"hoiho/internal/itdk"
	"hoiho/internal/psl"
)

func buildCorpus(t *testing.T, style string) (*itdk.Corpus, AddrMap) {
	t.Helper()
	c := itdk.NewCorpus("asn", false)
	m := AddrMap{}
	ip := 0
	add := func(id string, asn uint32, hostname string) {
		ip++
		addr := netip.MustParseAddr(fmt.Sprintf("192.0.2.%d", ip))
		r := &itdk.Router{ID: id, Interfaces: []itdk.Interface{{Addr: addr, Hostname: hostname}}}
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
		if asn != 0 {
			m[addr] = asn
		}
	}
	switch style {
	case "as-prefix":
		add("N1", 8218, "as8218-zayo.cr1.lhr1.example.net")
		add("N2", 1299, "as1299-twelve99.cr1.fra2.example.net")
		add("N3", 3356, "as3356-lumen.br1.nyc1.example.net")
		add("N4", 2914, "as2914-ntt.gw2.sjc1.example.net")
	case "bare":
		add("N1", 8218, "8218.lhr1.example.net")
		add("N2", 1299, "1299.fra2.example.net")
		add("N3", 3356, "3356.nyc1.example.net")
	case "wrong":
		// Hostnames embed numbers contradicting the mapping.
		add("N1", 8218, "as9999-x.cr1.example.net")
		add("N2", 1299, "as8888-y.cr1.example.net")
		add("N3", 3356, "as7777-z.cr1.example.net")
	}
	return c, m
}

func TestLearnASPrefix(t *testing.T) {
	c, m := buildCorpus(t, "as-prefix")
	convs := Learn(c, psl.MustDefault(), m, DefaultConfig())
	if len(convs) != 1 {
		t.Fatalf("conventions = %d, want 1", len(convs))
	}
	conv := convs[0]
	if conv.TP != 4 || conv.FP != 0 {
		t.Errorf("scores = %+v", conv)
	}
	asn, ok := conv.ExtractASN("as64512-newcustomer.edge9.ams1.example.net")
	if !ok || asn != 64512 {
		t.Errorf("ExtractASN = %d, %v", asn, ok)
	}
	if conv.PPV() != 1.0 {
		t.Errorf("PPV = %f", conv.PPV())
	}
}

func TestLearnBareNumber(t *testing.T) {
	c, m := buildCorpus(t, "bare")
	convs := Learn(c, psl.MustDefault(), m, DefaultConfig())
	if len(convs) != 1 {
		t.Fatalf("conventions = %d, want 1", len(convs))
	}
	if asn, ok := convs[0].ExtractASN("2914.sjc1.example.net"); !ok || asn != 2914 {
		t.Errorf("ExtractASN = %d, %v", asn, ok)
	}
}

func TestLearnRejectsContradictions(t *testing.T) {
	c, m := buildCorpus(t, "wrong")
	if convs := Learn(c, psl.MustDefault(), m, DefaultConfig()); len(convs) != 0 {
		t.Errorf("contradicted extractions should learn nothing: %+v", convs)
	}
}

func TestLearnNeedsMappedHostnames(t *testing.T) {
	c, _ := buildCorpus(t, "as-prefix")
	// Empty mapping: nothing to validate against.
	if convs := Learn(c, psl.MustDefault(), AddrMap{}, DefaultConfig()); len(convs) != 0 {
		t.Errorf("no mapping should learn nothing: %+v", convs)
	}
}

func TestExtractRejectsZeroASN(t *testing.T) {
	c, m := buildCorpus(t, "as-prefix")
	conv := Learn(c, psl.MustDefault(), m, DefaultConfig())[0]
	if _, ok := conv.ExtractASN("as0-null.cr1.example.net"); ok {
		t.Error("ASN 0 is reserved and must be rejected")
	}
	if _, ok := conv.ExtractASN("as99999999999-over.cr1.example.net"); ok {
		t.Error("ASN overflowing 32 bits must be rejected")
	}
}

func TestLearnFromSynthStyleInterconnects(t *testing.T) {
	// Mixed corpus: ordinary backbone hostnames plus interconnect
	// hostnames embedding customer ASNs — the regex must tolerate the
	// unmapped backbone names.
	c := itdk.NewCorpus("mixed", false)
	m := AddrMap{}
	ip := 0
	add := func(asn uint32, hostname string) {
		ip++
		addr := netip.MustParseAddr(fmt.Sprintf("198.51.100.%d", ip))
		r := &itdk.Router{ID: fmt.Sprintf("N%d", ip),
			Interfaces: []itdk.Interface{{Addr: addr, Hostname: hostname}}}
		_ = c.Add(r)
		if asn != 0 {
			m[addr] = asn
		}
	}
	add(0, "ae-1.cr1.lhr1.example.net")
	add(0, "ae-2.cr2.fra1.example.net")
	add(64496, "as64496-acme.cr1.lhr1.example.net")
	add(64497, "as64497-umbrella.cr2.fra1.example.net")
	add(64498, "as64498-initech.gw1.ams1.example.net")
	convs := Learn(c, psl.MustDefault(), m, DefaultConfig())
	if len(convs) != 1 || convs[0].TP != 3 {
		t.Fatalf("conventions = %+v", convs)
	}
}
