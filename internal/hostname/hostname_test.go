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
	var runs []string
	for _, sp := range h.Spans {
		for _, r := range sp.Runs {
			runs = append(runs, r.Text)
		}
	}
	if want := []string{"zayo", "ntt", "mpr", "lhr", "uk", "zip"}; !reflect.DeepEqual(runs, want) {
		t.Errorf("alphabetic runs = %v, want %v", runs, want)
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
	// Paper fig. 6e: Windstream splits a CLLI prefix across punctuation,
	// so its 4- and 2-letter halves are consecutive spans.
	h, err := Parse("ae2-0.agr2.mtgm-al.windstream.net", "windstream.net")
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, sp := range h.Spans {
		spans = append(spans, sp.Text)
	}
	if want := []string{"ae2", "0", "agr2", "mtgm", "al"}; !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
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
	if h.Spans[1].HasDigit() {
		t.Error("abc has no digit")
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
