package main

import (
	"errors"
	"testing"
	"time"
)

// TestCalibratedPassesThrough: calibrated returns f's error, a positive
// unit cost and the CPU time its slices took, and has stopped its
// goroutine by the time it returns.
func TestCalibratedPassesThrough(t *testing.T) {
	want := errors.New("f failed")
	ns, cpu, err := calibrated(func() error {
		time.Sleep(100 * time.Millisecond)
		return want
	})
	if !errors.Is(err, want) {
		t.Errorf("err = %v, want %v", err, want)
	}
	if ns <= 0 || cpu <= 0 {
		t.Errorf("unit cost %v ns, calibration cpu %v; want both positive", ns, cpu)
	}
	if got := atRefSpeed(2, calRefNS/2); got != 4 {
		t.Errorf("atRefSpeed(2 s at half the reference cost) = %v, want 4", got)
	}
}
