package itdk

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadCorpus: arbitrary corpus files must never panic, and anything
// accepted must survive a write/read round trip: the same routers, in
// order, each with the same ID, interface hostnames and ground truth
// (its position at the four decimals WriteGeo writes), and the same
// links.
func FuzzReadCorpus(f *testing.F) {
	f.Add("node N1: 192.0.2.1 192.0.2.2\nnode.name N1 192.0.2.1 a.example.net\n" +
		"node.geo N1: 39.0438 -77.4874 ashburn|va|us\nlink N1 N1\n")
	f.Add("node N1: 192.0.2.1\nnode N2: 192.0.2.2\nlink N1 N2\n")
	f.Add("# comments only\n")
	f.Add("bogus\n")
	f.Add("node N1: 192.0.2.1\nnode.name N1 192.0.2.1 A.Example.NET\nnode.geo N1: 40.71278 -74.006 new  york|ny|us\n")
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadCorpus(strings.NewReader(in), "fuzz", false)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteNodes(&buf, c); err != nil {
			t.Fatal(err)
		}
		if err := WriteNames(&buf, c); err != nil {
			t.Fatal(err)
		}
		if err := WriteGeo(&buf, c); err != nil {
			t.Fatal(err)
		}
		if err := WriteLinks(&buf, c); err != nil {
			t.Fatal(err)
		}
		c2, err := ReadCorpus(&buf, "fuzz2", false)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if c2.Len() != c.Len() || len(c2.Links) != len(c.Links) {
			t.Fatalf("round trip changed shape: %d/%d routers, %d/%d links",
				c.Len(), c2.Len(), len(c.Links), len(c2.Links))
		}
		for i, r := range c.Routers {
			if got, want := routerText(c2.Routers[i]), routerText(r); got != want {
				t.Fatalf("router %d: round trip gave %q, want %q", i, got, want)
			}
		}
		for i, l := range c.Links {
			if c2.Links[i] != l {
				t.Fatalf("link %d: round trip gave %v, want %v", i, c2.Links[i], l)
			}
		}
	})
}

// routerText renders what a round trip must keep of a router.
func routerText(r *Router) string {
	s := fmt.Sprintf("%q", r.ID)
	for _, ifc := range r.Interfaces {
		s += fmt.Sprintf(" %q", ifc.Hostname)
	}
	if t := r.Truth; t != nil {
		s += fmt.Sprintf(" %.4f %.4f %q %q %q", t.Pos.Lat, t.Pos.Long, t.City, t.Region, t.Country)
	}
	return s
}
