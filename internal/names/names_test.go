package names

import (
	"fmt"
	"net/netip"
	"testing"

	"hoiho/internal/itdk"
	"hoiho/internal/psl"
)

// buildCorpus creates routers whose interfaces share a router name.
func buildCorpus(t *testing.T, style string) *itdk.Corpus {
	t.Helper()
	c := itdk.NewCorpus("names", false)
	ip := 0
	addRouter := func(id string, hostnames ...string) {
		r := &itdk.Router{ID: id}
		for _, hn := range hostnames {
			ip++
			r.Interfaces = append(r.Interfaces, itdk.Interface{
				Addr:     netip.MustParseAddr(fmt.Sprintf("192.0.2.%d", ip)),
				Hostname: hn,
			})
		}
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	switch style {
	case "label":
		// Router name is the label before the suffix.
		for i, name := range []string{"cr1-lhr1", "cr2-lhr1", "br1-fra2", "gw3-ams1"} {
			addRouter(fmt.Sprintf("N%d", i),
				fmt.Sprintf("ae-1.%s.example.net", name),
				fmt.Sprintf("ae-2.%s.example.net", name),
				fmt.Sprintf("xe-0-1-0.%s.example.net", name),
			)
		}
	case "dash":
		// ebay-style: name embedded in the first label after the ifc.
		for i, name := range []string{"ash1-bcr1", "ash1-bcr2", "lvs1-bcr2", "fra4-ccr1"} {
			addRouter(fmt.Sprintf("N%d", i),
				fmt.Sprintf("xe-0-0-%s.bb.ebay.com", name),
				fmt.Sprintf("xe-0-1-%s.bb.ebay.com", name),
			)
		}
	case "twolabel":
		// Name spans two labels: device.pop.
		for i, pair := range [][2]string{{"cr1", "lhr1"}, {"cr2", "lhr1"}, {"cr1", "fra2"}, {"gw1", "ams3"}} {
			addRouter(fmt.Sprintf("N%d", i),
				fmt.Sprintf("ae-1.%s.%s.example.net", pair[0], pair[1]),
				fmt.Sprintf("ae-2.%s.%s.example.net", pair[0], pair[1]),
			)
		}
	}
	return c
}

func TestLearnLabelStyle(t *testing.T) {
	c := buildCorpus(t, "label")
	convs := Learn(c, psl.MustDefault())
	if len(convs) != 1 {
		t.Fatalf("conventions = %d, want 1", len(convs))
	}
	conv := convs[0]
	if conv.Suffix != "example.net" {
		t.Errorf("suffix = %s", conv.Suffix)
	}
	if conv.Routers != 4 || conv.Collisions != 0 || conv.Missed != 0 {
		t.Errorf("scores = %+v", conv)
	}
	name, ok := conv.ExtractName("ge-9.cr1-lhr1.example.net")
	if !ok || name != "cr1-lhr1" {
		t.Errorf("ExtractName = %q, %v", name, ok)
	}
}

func TestLearnDashStyle(t *testing.T) {
	c := buildCorpus(t, "dash")
	convs := Learn(c, psl.MustDefault())
	if len(convs) != 1 {
		t.Fatalf("conventions = %d, want 1", len(convs))
	}
	conv := convs[0]
	if conv.Routers != 4 || conv.ATP() != 4 {
		t.Errorf("scores = %+v", conv)
	}
	name, ok := conv.ExtractName("xe-1-2-ash1-bcr1.bb.ebay.com")
	if !ok || name != "ash1-bcr1" {
		t.Errorf("ExtractName = %q, %v (pattern %s)", name, ok, conv.Pattern)
	}
}

func TestLearnTwoLabelStyle(t *testing.T) {
	c := buildCorpus(t, "twolabel")
	convs := Learn(c, psl.MustDefault())
	if len(convs) != 1 {
		t.Fatalf("conventions = %d, want 1", len(convs))
	}
	conv := convs[0]
	// The single-label pattern collides (cr1.lhr1 vs cr1.fra2 both
	// extract differently... cr1 repeated across pops would collide);
	// the two-label pattern separates all four routers.
	if conv.Collisions != 0 || conv.Routers != 4 {
		t.Errorf("scores = %+v (pattern %s)", conv, conv.Pattern)
	}
	name, _ := conv.ExtractName("ae-1.cr1.lhr1.example.net")
	if name != "cr1.lhr1" {
		t.Errorf("name = %q (pattern %s)", name, conv.Pattern)
	}
}

func TestLearnRequiresMultiHostnameRouters(t *testing.T) {
	c := itdk.NewCorpus("sparse", false)
	r := &itdk.Router{ID: "N1", Interfaces: []itdk.Interface{{
		Addr: netip.MustParseAddr("192.0.2.1"), Hostname: "a.cr1.example.net"}}}
	_ = c.Add(r)
	if convs := Learn(c, psl.MustDefault()); len(convs) != 0 {
		t.Errorf("single-hostname corpus should learn nothing: %+v", convs)
	}
}

func TestLearnRejectsInconsistentNaming(t *testing.T) {
	// Hostnames of one router share nothing: no convention should
	// survive (every candidate misses or collides).
	c := itdk.NewCorpus("mess", false)
	ip := 0
	for i := 0; i < 4; i++ {
		r := &itdk.Router{ID: fmt.Sprintf("N%d", i)}
		for j := 0; j < 2; j++ {
			ip++
			r.Interfaces = append(r.Interfaces, itdk.Interface{
				Addr:     netip.MustParseAddr(fmt.Sprintf("192.0.2.%d", ip)),
				Hostname: fmt.Sprintf("host%d.example.net", ip),
			})
		}
		_ = c.Add(r)
	}
	if convs := Learn(c, psl.MustDefault()); len(convs) != 0 {
		t.Errorf("inconsistent corpus should learn nothing, got %+v", convs)
	}
}

func TestExtractNameNoMatch(t *testing.T) {
	c := buildCorpus(t, "label")
	conv := Learn(c, psl.MustDefault())[0]
	if _, ok := conv.ExtractName("unrelated.example.org"); ok {
		t.Error("foreign hostname should not extract")
	}
}
