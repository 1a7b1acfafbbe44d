package alias

import (
	"fmt"
	"net/netip"
	"testing"
)

func addr(n int) netip.Addr {
	return netip.MustParseAddr(fmt.Sprintf("192.0.2.%d", n))
}

func device(rate float64, base uint16, addrs ...int) *SimDevice {
	d := &SimDevice{Base: base, Rate: rate, JitterIDs: 2}
	for _, n := range addrs {
		d.Addrs = append(d.Addrs, addr(n))
	}
	return d
}

func TestResolveGroupsAliases(t *testing.T) {
	devices := []*SimDevice{
		device(40, 100, 1, 2, 3), // router A: three interfaces
		device(45, 9000, 4, 5),   // router B: similar velocity, different counter
		device(400, 42, 6, 7),    // router C: much faster counter
		device(55, 500, 8),       // lone interface
	}
	p := NewSimProber(devices, 1, 0)
	res := Resolve(p, p.Addrs())
	if len(res.Routers) != 3 {
		t.Fatalf("routers = %d, want 3: %v", len(res.Routers), res.Routers)
	}
	want := [][]int{{1, 2, 3}, {4, 5}, {6, 7}}
	for i, g := range res.Routers {
		if len(g) != len(want[i]) {
			t.Errorf("router %d = %v, want addrs %v", i, g, want[i])
			continue
		}
		for j, n := range want[i] {
			if g[j] != addr(n) {
				t.Errorf("router %d = %v, want %v", i, g, want[i])
				break
			}
		}
	}
	if len(res.Singletons) != 1 || res.Singletons[0] != addr(8) {
		t.Errorf("singletons = %v, want [.8]", res.Singletons)
	}
	if len(res.Discarded) != 0 {
		t.Errorf("discarded = %v", res.Discarded)
	}
}

func TestResolveDiscardsUnusableIPIDs(t *testing.T) {
	randomDev := &SimDevice{Addrs: []netip.Addr{addr(1), addr(2)}, RandomID: true}
	constDev := &SimDevice{Addrs: []netip.Addr{addr(3)}, ConstantID: true}
	silent := &SimDevice{Addrs: []netip.Addr{addr(4)},
		Unresponsive: map[netip.Addr]bool{addr(4): true}}
	good := device(50, 7, 5, 6)
	p := NewSimProber([]*SimDevice{randomDev, constDev, silent, good}, 2, 0)
	res := Resolve(p, p.Addrs())
	if len(res.Discarded) != 4 {
		t.Errorf("discarded = %v, want the random pair, constant, and silent", res.Discarded)
	}
	if len(res.Routers) != 1 || len(res.Routers[0]) != 2 {
		t.Errorf("routers = %v, want the good pair", res.Routers)
	}
}

func TestResolveSeparatesSameVelocityDifferentCounters(t *testing.T) {
	// Two routers with identical velocity — candidate selection cannot
	// prune them; the MBT must separate them by counter offset.
	a := device(60, 0, 1, 2)
	b := device(60, 30000, 3, 4)
	p := NewSimProber([]*SimDevice{a, b}, 3, 0)
	res := Resolve(p, p.Addrs())
	if len(res.Routers) != 2 {
		t.Fatalf("routers = %v, want 2 separate devices", res.Routers)
	}
	for _, g := range res.Routers {
		if len(g) != 2 {
			t.Errorf("group %v should have exactly 2 addresses", g)
		}
	}
}

func TestResolveHandlesCounterWrap(t *testing.T) {
	// A counter near the 16-bit wrap point must still group correctly.
	d := device(50, 65500, 1, 2)
	p := NewSimProber([]*SimDevice{d}, 4, 0)
	res := Resolve(p, p.Addrs())
	if len(res.Routers) != 1 || len(res.Routers[0]) != 2 {
		t.Errorf("wrap case: routers = %v", res.Routers)
	}
}

func TestResolveToleratesLoss(t *testing.T) {
	devices := []*SimDevice{device(40, 100, 1, 2), device(300, 5, 3, 4)}
	p := NewSimProber(devices, 5, 0.08)
	res := Resolve(p, p.Addrs())
	// Loss may discard an address or break one MBT run, but it must not
	// invent a false alias across devices.
	for _, g := range res.Routers {
		first := g[0]
		for _, a := range g[1:] {
			if deviceOf(devices, first) != deviceOf(devices, a) {
				t.Fatalf("false alias across devices: %v", g)
			}
		}
	}
}

func deviceOf(devices []*SimDevice, a netip.Addr) int {
	for i, d := range devices {
		for _, x := range d.Addrs {
			if x == a {
				return i
			}
		}
	}
	return -1
}

func TestVelocityCompatible(t *testing.T) {
	if !velocityCompatible(40, 50, 1.6) {
		t.Error("40 and 50 should be compatible at 1.6x slack")
	}
	if velocityCompatible(40, 400, 1.6) {
		t.Error("40 and 400 should not be compatible")
	}
	if velocityCompatible(0, 50, 1.6) {
		t.Error("zero velocity is not compatible with anything")
	}
}

func TestScaleResolution(t *testing.T) {
	// 40 devices, 2-4 interfaces each: resolution must reconstruct every
	// device exactly.
	var devices []*SimDevice
	n := 1
	for i := 0; i < 40; i++ {
		k := 2 + i%3
		var addrs []int
		for j := 0; j < k; j++ {
			addrs = append(addrs, n)
			n++
		}
		devices = append(devices, device(20+float64(i*13%900), uint16(i*1021), addrs...))
	}
	p := NewSimProber(devices, 6, 0)
	res := Resolve(p, p.Addrs())
	if len(res.Routers) != len(devices) {
		t.Fatalf("routers = %d, want %d", len(res.Routers), len(devices))
	}
	for _, g := range res.Routers {
		dev := deviceOf(devices, g[0])
		if len(g) != len(devices[dev].Addrs) {
			t.Errorf("device %d resolved as %v, want %d interfaces", dev, g, len(devices[dev].Addrs))
		}
		for _, a := range g[1:] {
			if deviceOf(devices, a) != dev {
				t.Errorf("false alias in %v", g)
			}
		}
	}
}
