package rex

import (
	"sync"
	"testing"
)

// TestRegexConcurrentCaches hammers one shared *Regex from many
// goroutines. The rendering and the matcher are built lazily, so this
// locks in their sync.Once guards — a published NamingConvention's
// regexes are shared by concurrent lookups, and the parallel pipeline
// evaluates shared candidates the same way. Run with -race.
func TestRegexConcurrentCaches(t *testing.T) {
	regexes := []*Regex{alterIATA(), alterCity()}
	hosts := []string{
		"0.xe-10-0-0.gw1.sfo16.alter.net",
		"pos-1.munich3.de.alter.net",
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for ri, r := range regexes {
					if r.String() == "" {
						t.Error("empty rendering")
					}
					if err := r.Prepare(); err != nil {
						t.Error(err)
					}
					if _, ok := r.Match(hosts[ri]); !ok {
						t.Errorf("regex %d failed to match %s", ri, hosts[ri])
					}
					if _, ok := r.ComponentMatches(hosts[ri]); !ok {
						t.Errorf("regex %d probe failed on %s", ri, hosts[ri])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRegexConcurrentCompileError checks that a matcher build failure
// is cached race-free, that Prepare reports the one error to every
// caller, and that such a regex matches nothing.
func TestRegexConcurrentCompileError(t *testing.T) {
	// A fixed count past rexmatch's repeat limit builds no matcher.
	// Validate refuses it too; this regex skips Validate.
	r := New(0, Component{Kind: KindAlphaFixed, N: 100000, Capture: true, Role: RoleHint})
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				err := r.Prepare()
				if err == nil {
					t.Error("out-of-dialect regex prepared")
				}
				errs[g] = err
				if _, ok := r.Match("x"); ok {
					t.Error("out-of-dialect regex matched")
				}
				if _, ok := r.ComponentMatches("x"); ok {
					t.Error("out-of-dialect regex probed")
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs[1:] {
		if err != errs[0] {
			t.Errorf("callers saw different errors: %v, %v", errs[0], err)
		}
	}
	if r.Validate() == nil {
		t.Error("Validate accepts a regex that builds no matcher")
	}
}
