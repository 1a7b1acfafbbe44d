package hostname

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseZayoExample(t *testing.T) {
	// Paper fig. 6a.
	h, err := Parse("zayo-ntt.mpr1.lhr15.uk.zip.zayo.com", "zayo.com")
	if err != nil {
		t.Fatal(err)
	}
	if h.Prefix != "zayo-ntt.mpr1.lhr15.uk.zip" {
		t.Errorf("Prefix = %q", h.Prefix)
	}
	wantLabels := []string{"zayo-ntt", "mpr1", "lhr15", "uk", "zip"}
	if !reflect.DeepEqual(h.Labels, wantLabels) {
		t.Errorf("Labels = %v", h.Labels)
	}
	want := []string{"zayo", "ntt", "mpr", "lhr", "uk", "zip"}
	if got := h.AlphaStrings(); !reflect.DeepEqual(got, want) {
		t.Errorf("AlphaStrings = %v, want %v", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("ntt.net", "ntt.net"); err == nil {
		t.Error("hostname equal to suffix should error")
	}
	if _, err := Parse("foo.example.com", "ntt.net"); err == nil {
		t.Error("suffix mismatch should error")
	}
	if _, err := Parse("foo.example.com", ""); err == nil {
		t.Error("empty suffix should error")
	}
}

func TestParseCaseAndTrailingDot(t *testing.T) {
	h, err := Parse("Core1.LHR1.Example.COM.", "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if h.Full != "core1.lhr1.example.com" {
		t.Errorf("Full = %q", h.Full)
	}
}

func TestSpansWindstreamSplitCLLI(t *testing.T) {
	// Paper fig. 6e: Windstream splits a CLLI prefix across punctuation.
	h, err := Parse("ae2-0.agr2.mtgm-al.windstream.net", "windstream.net")
	if err != nil {
		t.Fatal(err)
	}
	pairs := h.AdjacentRunPairs()
	found := false
	for _, p := range pairs {
		if p[0] == "mtgm" && p[1] == "al" {
			found = true
		}
	}
	if !found {
		t.Errorf("AdjacentRunPairs = %v, want to include [mtgm al]", pairs)
	}
}

func TestSpanOffsets(t *testing.T) {
	h, err := Parse("ab-cd1.ef.example.com", "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Spans) != 3 {
		t.Fatalf("Spans = %d, want 3", len(h.Spans))
	}
	// Verify offsets point at the right text within the prefix.
	for _, sp := range h.Spans {
		if got := h.Prefix[sp.Start : sp.Start+len(sp.Text)]; got != sp.Text {
			t.Errorf("span %q offset %d points at %q", sp.Text, sp.Start, got)
		}
	}
	if h.Spans[0].Label != 0 || h.Spans[1].Label != 0 || h.Spans[2].Label != 1 {
		t.Errorf("label indices wrong: %+v", h.Spans)
	}
}

func TestSpanFlags(t *testing.T) {
	h, err := Parse("lhr15.abc.example.com", "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Spans[0].HasDigit() {
		t.Error("lhr15 should have a digit")
	}
	if h.Spans[0].AllAlpha() {
		t.Error("lhr15 is not all-alpha")
	}
	if !h.Spans[1].AllAlpha() {
		t.Error("abc should be all-alpha")
	}
}

func TestAlphaRunsInterleaved(t *testing.T) {
	// Facility street addresses interleave digits and letters.
	h, err := Parse("be-33.529bryant.example.com", "example.com")
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, sp := range h.Spans {
		spans = append(spans, sp.Text)
	}
	if !reflect.DeepEqual(spans, []string{"be", "33", "529bryant"}) {
		t.Errorf("spans = %v", spans)
	}
	last := h.Spans[2]
	if len(last.Runs) != 1 || last.Runs[0].Text != "bryant" || last.Runs[0].Start != 3 {
		t.Errorf("runs of 529bryant = %+v", last.Runs)
	}
}

func TestConsecutiveDelimiters(t *testing.T) {
	h, err := Parse("a--b.example.com", "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Spans) != 2 || h.Spans[0].Text != "a" || h.Spans[1].Text != "b" {
		t.Errorf("spans = %+v", h.Spans)
	}
}

func TestAdjacentRunPairsOnlyCrossesOneBoundary(t *testing.T) {
	h, err := Parse("aaaa-bb-cc.example.com", "example.com")
	if err != nil {
		t.Fatal(err)
	}
	pairs := h.AdjacentRunPairs()
	want := [][2]string{{"aaaa", "bb"}, {"bb", "cc"}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestIsAlnum(t *testing.T) {
	if !IsAlnum("abc123") {
		t.Error("abc123 should be alnum")
	}
	if IsAlnum("") || IsAlnum("a-b") || IsAlnum("A") {
		t.Error("empty, punctuated, and upper-case strings are not alnum")
	}
}

func TestParseProperty(t *testing.T) {
	// For any prefix assembled from safe label characters, parsing
	// prefix+".example.com" round-trips: joining labels with dots
	// reconstructs the prefix, and every span text appears in the prefix.
	f := func(parts []uint8) bool {
		alphabet := []string{"ae", "cr1", "lhr", "xe-0-1", "bb", "gw", "core2", "10ge"}
		if len(parts) == 0 {
			return true
		}
		if len(parts) > 6 {
			parts = parts[:6]
		}
		var labels []string
		for _, p := range parts {
			labels = append(labels, alphabet[int(p)%len(alphabet)])
		}
		prefix := strings.Join(labels, ".")
		h, err := Parse(prefix+".example.com", "example.com")
		if err != nil {
			return false
		}
		if strings.Join(h.Labels, ".") != prefix {
			return false
		}
		for _, sp := range h.Spans {
			if h.Prefix[sp.Start:sp.Start+len(sp.Text)] != sp.Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
