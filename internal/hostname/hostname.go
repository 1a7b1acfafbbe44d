// Package hostname tokenizes router hostnames for geohint analysis.
//
// The Hoiho method (paper §5.2) inspects the portion of a hostname before
// its registrable domain suffix, considering each punctuation-delimited
// string — and each maximal alphabetic run inside those strings — as a
// candidate geohint. For zayo-ntt.mpr1.lhr15.uk.zip.zayo.com with suffix
// zayo.com, the candidates are "zayo", "ntt", "mpr", "lhr", "uk", "zip".
package hostname

import (
	"fmt"
	"strings"
)

// Run is a maximal alphabetic run within a span ("lhr" within "lhr15").
type Run struct {
	Text  string
	Start int // byte offset within the span
}

// Span is a punctuation-delimited string within a hostname label.
// Hyphens and underscores delimit spans; digits do not ("lhr15" is one
// span with a digit tail).
type Span struct {
	Text  string
	Label int   // index of the containing dot-separated label, 0 = leftmost
	Start int   // byte offset within the hostname prefix
	Runs  []Run // maximal alphabetic runs, in order
}

// HasDigit reports whether the span contains a decimal digit.
func (s *Span) HasDigit() bool {
	for i := 0; i < len(s.Text); i++ {
		if isDigit(s.Text[i]) {
			return true
		}
	}
	return false
}

// Hostname is a tokenized router hostname.
type Hostname struct {
	Full   string   // complete lower-case hostname
	Suffix string   // registrable domain suffix ("ntt.net")
	Prefix string   // portion before the suffix, without the joining dot
	Labels []string // dot-separated labels of the prefix, left to right
	Spans  []Span   // punctuation-delimited spans across all labels
}

// Parse tokenizes a hostname whose registrable suffix is already known
// (from the public suffix list). It returns an error when the hostname
// does not end with the suffix or when the prefix is empty — a hostname
// equal to its suffix has no geohint-bearing portion.
func Parse(full, suffix string) (*Hostname, error) {
	full = strings.ToLower(strings.TrimSuffix(full, "."))
	suffix = strings.ToLower(strings.Trim(suffix, "."))
	if suffix == "" {
		return nil, fmt.Errorf("hostname: empty suffix for %q", full)
	}
	if full == suffix {
		return nil, fmt.Errorf("hostname: %q has no prefix before suffix", full)
	}
	if !strings.HasSuffix(full, "."+suffix) {
		return nil, fmt.Errorf("hostname: %q does not end in suffix %q", full, suffix)
	}
	prefix := strings.TrimSuffix(full, "."+suffix)
	h := &Hostname{Full: full, Suffix: suffix, Prefix: prefix}
	h.Labels = strings.Split(prefix, ".")

	offset := 0
	for li, label := range h.Labels {
		spans := splitSpans(label)
		for _, sp := range spans {
			sp.Label = li
			sp.Start += offset
			h.Spans = append(h.Spans, sp)
		}
		offset += len(label) + 1 // +1 for the dot
	}
	return h, nil
}

// splitSpans splits a label on hyphens and underscores into spans and
// computes the alphabetic runs within each.
func splitSpans(label string) []Span {
	var spans []Span
	start := 0
	flush := func(end int) {
		if end > start {
			text := label[start:end]
			spans = append(spans, Span{Text: text, Start: start, Runs: alphaRuns(text)})
		}
		start = end + 1
	}
	for i := 0; i < len(label); i++ {
		if label[i] == '-' || label[i] == '_' {
			flush(i)
		}
	}
	flush(len(label))
	return spans
}

// alphaRuns returns the maximal alphabetic runs within s, in order.
func alphaRuns(s string) []Run {
	var runs []Run
	i := 0
	for i < len(s) {
		if isAlpha(s[i]) {
			j := i
			for j < len(s) && isAlpha(s[j]) {
				j++
			}
			runs = append(runs, Run{Text: s[i:j], Start: i})
			i = j
		} else {
			i++
		}
	}
	return runs
}

func isAlpha(b byte) bool { return b >= 'a' && b <= 'z' }
func isDigit(b byte) bool { return b >= '0' && b <= '9' }
