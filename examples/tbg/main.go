// TBG demonstrates the paper's "most promising next step" (§8):
// synthesizing hostname geolocation with router-level topology. Routers
// geolocated through learned naming conventions become anchors;
// topology-based geolocation (Katz-Bassett et al.) then confines their
// unnamed neighbors far more tightly than vantage-point delays alone.
//
// Run with:
//
//	go run ./examples/tbg
package main

import (
	"fmt"
	"log"

	"hoiho/internal/core"
	"hoiho/internal/geo"
	"hoiho/internal/synth"
	"hoiho/internal/tbg"
)

func main() {
	p, err := synth.ITDKPreset("ipv4-aug2020")
	if err != nil {
		log.Fatal(err)
	}
	p.Operators = 12
	p.Noise = 5
	p.VPs = 14
	w, err := synth.Generate(p)
	if err != nil {
		log.Fatal(err)
	}
	w.CleanSpoofers()

	res, err := core.Run(w.Inputs(), core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	anchors := tbg.BuildAnchors(w.Inputs(), res, w.PSL)
	fmt.Printf("hostname geolocation anchored %d of %d routers\n\n",
		len(anchors), w.Corpus.Len())

	fmt.Printf("%-26s %12s %14s %10s\n", "unanchored router", "VP-only err", "VP-only ±km", "TBG ±km")
	shown := 0
	var sumVP, sumTBG float64
	for _, r := range w.Corpus.Routers {
		if _, ok := anchors[r.ID]; ok {
			continue
		}
		anchored := false
		for _, nbr := range w.Corpus.Neighbors(r.ID) {
			if _, ok := anchors[nbr]; ok {
				anchored = true
				break
			}
		}
		if !anchored || !w.Matrix.HasPing(r.ID) {
			continue
		}
		truth := w.TruthRouter[r.ID]
		vpOnly, ok1 := tbg.Geolocate(w.Corpus, w.Matrix, tbg.Anchors{}, r.ID)
		full, ok2 := tbg.Geolocate(w.Corpus, w.Matrix, anchors, r.ID)
		if !ok1 || !ok2 || full.AnchorLinks == 0 {
			continue
		}
		errVP := geo.DistanceKm(vpOnly.Region.Center, truth.Pos)
		sumVP += vpOnly.Region.ErrorRadiusKm
		sumTBG += full.Region.ErrorRadiusKm
		shown++
		if shown <= 10 {
			fmt.Printf("%-26s %9.0f km %11.0f km %7.0f km\n",
				r.ID, errVP, vpOnly.Region.ErrorRadiusKm, full.Region.ErrorRadiusKm)
		}
		if shown >= 40 {
			break
		}
	}
	if shown == 0 {
		log.Fatal("no TBG-eligible routers in this world")
	}
	fmt.Printf("\nmean feasible-region radius over %d routers: %.0f km (VP-only) -> %.0f km (with anchors)\n",
		shown, sumVP/float64(shown), sumTBG/float64(shown))
}
