//go:build race

package dnsserve

func init() { raceEnabled = true }
