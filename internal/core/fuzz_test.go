package core

import (
	"strings"
	"testing"
)

// FuzzReadConventions: arbitrary conventions files must never panic,
// every accepted learned hint must sit on the globe, and anything
// accepted must re-serialise without error.
func FuzzReadConventions(f *testing.F) {
	f.Add("suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\n" +
		"regex iata hint ^.+\\.([a-z]{3})\\d*\\.a\\.net$\n" +
		"learned iata ash 39.0438 -77.4874 ashburn|va|us tp=4 fp=0 collide=true\n")
	f.Add("# empty\n")
	f.Add("suffix")
	f.Add("suffix a.net good tp=x fp=0 fn=0 unk=0 hints=1")
	f.Add("suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\n" +
		"learned iata ash NaN -77.4875 ashburn|va|us tp=4 fp=0 collide=false\n")
	f.Add("suffix a.net good tp=1 fp=0 fn=0 unk=0 hints=1\n" +
		"learned iata ash 90 -Inf ashburn|va|us tp=4 fp=0 collide=false\n")
	f.Fuzz(func(t *testing.T, in string) {
		res, err := ReadConventions(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, nc := range res.NCs {
			for _, lh := range nc.Learned {
				if !lh.Loc.Pos.Valid() {
					t.Fatalf("accepted learned hint %q at %v", lh.Hint, lh.Loc.Pos)
				}
			}
		}
		var sb strings.Builder
		if err := WriteConventions(&sb, res); err != nil {
			t.Fatalf("accepted conventions failed to serialise: %v", err)
		}
		// And the serialisation must parse back.
		if _, err := ReadConventions(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, sb.String())
		}
	})
}
