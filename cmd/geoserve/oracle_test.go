package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"hoiho/internal/core"
)

// The reply types geoserve encoded through encoding/json before
// appendResult, kept as the reference the encoder must match byte for
// byte (FuzzAppendResult, TestGeolocateMatchesOracle) and as the shape
// tests decode replies into.

// lookupResult is the JSON shape of one geolocated hostname.
type lookupResult struct {
	Hostname string        `json:"hostname"`
	Located  bool          `json:"located"`
	Suffix   string        `json:"suffix,omitempty"`
	Hint     string        `json:"hint,omitempty"`
	Type     string        `json:"type,omitempty"`
	Learned  bool          `json:"learned,omitempty"`
	Location *locationJSON `json:"location,omitempty"`
}

type locationJSON struct {
	City    string  `json:"city"`
	Region  string  `json:"region,omitempty"`
	Country string  `json:"country"`
	Lat     float64 `json:"lat"`
	Long    float64 `json:"long"`
}

type batchResponse struct {
	Results []lookupResult `json:"results"`
}

func toResult(hostname string, g *core.Geolocation) lookupResult {
	if g == nil {
		return lookupResult{Hostname: hostname}
	}
	return lookupResult{
		Hostname: hostname,
		Located:  true,
		Suffix:   g.Suffix,
		Hint:     g.Hint,
		Type:     g.Type.String(),
		Learned:  g.Learned,
		Location: &locationJSON{
			City: g.Loc.City, Region: g.Loc.Region, Country: g.Loc.Country,
			Lat: g.Loc.Pos.Lat, Long: g.Loc.Pos.Long,
		},
	}
}

// oracleEncode renders v as the old writeJSON did: json.Encoder with
// HTML escaping off, newline-terminated.
func oracleEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	return buf.Bytes()
}

// oracleSingle is the old single-lookup reply body.
func oracleSingle(t testing.TB, hostname string, g *core.Geolocation) []byte {
	return oracleEncode(t, toResult(hostname, g))
}

// oracleBatch is the old batch reply body.
func oracleBatch(t testing.TB, hostnames []string, gs []*core.Geolocation) []byte {
	resp := batchResponse{Results: make([]lookupResult, len(hostnames))}
	for i, g := range gs {
		resp.Results[i] = toResult(hostnames[i], g)
	}
	return oracleEncode(t, resp)
}
