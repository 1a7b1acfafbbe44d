// Comparison runs all four geolocation methods — Hoiho (this library),
// DRoP, HLOC, and undns — over one synthetic operator and prints a
// figure-9-style scoreboard plus each method's answer for a few
// hostnames, illustrating why the methods disagree.
//
// Run with:
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"log"
	"sort"

	"hoiho/internal/baseline/drop"
	"hoiho/internal/baseline/hloc"
	"hoiho/internal/core"
	"hoiho/internal/eval"
	"hoiho/internal/geo"
	"hoiho/internal/synth"
)

func main() {
	// A small ITDK-shaped world with ground truth.
	p, err := synth.ITDKPreset("ipv4-aug2020")
	if err != nil {
		log.Fatal(err)
	}
	p.Operators = 10
	p.Noise = 4
	p.VPs = 16
	w, err := synth.Generate(p)
	if err != nil {
		log.Fatal(err)
	}
	if spoofers := w.CleanSpoofers(); len(spoofers) > 0 {
		fmt.Printf("filtered spoofing VPs: %v\n\n", spoofers)
	}

	res, err := core.Run(w.Inputs(), core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Figure-9-style comparison over every geohint-bearing hostname.
	f := eval.ComputeFig9(w, res)
	fmt.Print(f.Format())

	// Show individual answers for one suffix.
	suffix := f.Suffixes[0]
	for _, s := range f.Suffixes {
		if nc := res.NCs[s]; nc != nil && len(nc.Learned) > 0 {
			suffix = s
			break
		}
	}
	fmt.Printf("\nper-hostname answers for %s:\n", suffix)

	dropRules := drop.Learn(w.Corpus, w.PSL, w.Dict, w.Matrix)
	hlocInst := hloc.New(w.Dict, w.Matrix)
	undnsRules := eval.BuildUndnsRuleset(w, 0.6, 14)
	nc := res.NCs[suffix]

	var hosts []string
	hostRouter := make(map[string]string)
	for _, r := range w.Corpus.Routers {
		for _, ifc := range r.Interfaces {
			if ifc.Hostname != "" && w.HintHostnames[ifc.Hostname] == suffix {
				hosts = append(hosts, ifc.Hostname)
				hostRouter[ifc.Hostname] = r.ID
			}
		}
	}
	sort.Strings(hosts)
	if len(hosts) > 6 {
		hosts = hosts[:6]
	}
	for _, host := range hosts {
		truth := w.TruthRouter[hostRouter[host]]
		fmt.Printf("  %s (truth: %s)\n", host, truth.String())

		if g, ok := core.Geolocate(nc, w.Dict, host); ok {
			fmt.Printf("    hoiho: %-26s %s\n", g.Loc.String(), verdict(g.Loc.Pos, truth.Pos))
		} else {
			fmt.Printf("    hoiho: no answer\n")
		}
		if loc, ok := dropRules.Geolocate(host, suffix, w.Dict); ok {
			fmt.Printf("    drop:  %-26s %s\n", loc.String(), verdict(loc.Pos, truth.Pos))
		} else {
			fmt.Printf("    drop:  no answer\n")
		}
		if loc, ok := hlocInst.Geolocate(hostRouter[host], host, suffix); ok {
			fmt.Printf("    hloc:  %-26s %s\n", loc.String(), verdict(loc.Pos, truth.Pos))
		} else {
			fmt.Printf("    hloc:  no answer\n")
		}
		if loc, ok := undnsRules.Geolocate(host, suffix); ok {
			fmt.Printf("    undns: %-26s %s\n", loc.String(), verdict(loc.Pos, truth.Pos))
		} else {
			fmt.Printf("    undns: no answer\n")
		}
	}
}

func verdict(inferred, truth geo.LatLong) string {
	km := geo.DistanceKm(inferred, truth)
	if km <= eval.TruePositiveKm {
		return fmt.Sprintf("OK (%.0f km)", km)
	}
	return fmt.Sprintf("WRONG (%.0f km off)", km)
}
