package rex

// The matcher: every component of the dialect is either fixed text or
// a greedy repetition of one byte class, so a match is an assignment
// of one contiguous span per component covering the whole input.
// compile turns a component sequence into a prog that explores those
// assignments in leftmost-first order (longest span first for greedy
// repetitions, exactly the order the stdlib engine prefers) and
// memoizes failed (component, position) states in a bitset, so the
// scan is a single pass over the product graph: each state is expanded
// at most once, giving O(components × input) worst-case work instead
// of the stdlib engine's NFA simulation, and typically one forward
// scan with no backtracking at all. Successful matches therefore
// report byte-identical submatch spans to regexp.FindStringSubmatch on
// the rendered pattern — a property the differential fuzz target
// FuzzRexmatchVsStdlib enforces.
//
// The hot path scans bytes, which is equivalent to the stdlib's
// rune-wise scanning whenever every repetition unit is one byte: the
// positive classes ([a-z], \d, [a-z\d]) are pure ASCII, so programs
// without negated classes take the byte path on every input, and any
// program does on pure-ASCII input (the production case — router
// hostnames are ASCII). Equivalence does NOT extend to negated
// classes ([^\.], [^-], the newline-excluding .) over non-ASCII
// input: those match multi-byte runes, and the stdlib counts each
// rune as ONE repetition unit, so byte-wise counting would let
// adjacent repetitions split a rune that the stdlib treats as
// indivisible (found by the differential fuzz target: three adjacent
// ([^\.]+) groups must not match a two-rune three-byte input). run
// therefore routes negated-class programs over non-ASCII input
// through a slower rune-counting variant of the same search.
//
// compile refuses what Validate refuses component by component:
// unknown kinds and fixed repeats outside 1-maxFixed. Scratch state
// (span arrays and the visited bitset) lives in a caller-held result
// that is reused across calls, so a steady-state match allocates
// nothing.

import (
	"strings"
	"unicode/utf8"
)

// Byte-class indices. Index 0 is the fixed-text sentinel; the rest
// index classTabs. Negated classes come before clsAlpha, positive
// ones from it on.
const (
	clsLit = iota
	clsAny
	clsNotDot
	clsNotDash
	clsAlpha
	clsDigit
	clsAlnum
	numCls
)

// classTabs holds one membership table per byte class.
var classTabs [numCls][256]bool

func init() {
	for b := 0; b < 256; b++ {
		classTabs[clsAny][b] = b != '\n'
		classTabs[clsNotDot][b] = b != '.'
		classTabs[clsNotDash][b] = b != '-'
		classTabs[clsAlpha][b] = b >= 'a' && b <= 'z'
		classTabs[clsDigit][b] = b >= '0' && b <= '9'
		classTabs[clsAlnum][b] = (b >= 'a' && b <= 'z') || (b >= '0' && b <= '9')
	}
}

// classRun returns the length of the leading run of s's bytes in
// class cls.
func classRun(s string, cls uint8) int {
	tab := &classTabs[cls]
	i := 0
	for i < len(s) && tab[s[i]] {
		i++
	}
	return i
}

// cspec is a compiled component: either fixed text or a greedy class
// repetition with inclusive length bounds.
type cspec struct {
	lit string
	cls uint8 // clsLit for fixed text
	min int32
	max int32 // -1 = unbounded
}

// prog is a compiled component sequence. Immutable and safe for
// concurrent use; per-match scratch lives in the caller's result.
type prog struct {
	specs  []cspec
	minLen int    // sum of minimum component widths: quick length reject
	maxLen int    // sum of maximum widths, -1 when any is unbounded
	head   string // leading fixed text, "" when the program starts elsewhere
	tail   string // trailing fixed text, "" when the program ends elsewhere
	hasNeg bool   // any negated class: rune-counting needed on non-ASCII input
}

// compile builds the matcher for a component sequence from the kind
// table, or reports the first component outside the dialect.
func compile(comps []Component) (*prog, error) {
	p := &prog{specs: make([]cspec, len(comps))}
	for i, c := range comps {
		if err := c.check(); err != nil {
			return nil, err
		}
		k := &kinds[c.Kind]
		s := cspec{lit: k.fixed, cls: k.cls, min: k.min, max: -1}
		switch {
		case c.Kind == KindLiteral:
			s.lit = c.Lit
		case c.Kind == KindAlphaFixed:
			s.min, s.max = int32(c.N), int32(c.N)
		}
		if s.cls == clsLit {
			s.min, s.max = int32(len(s.lit)), int32(len(s.lit))
		}
		p.specs[i] = s
		p.hasNeg = p.hasNeg || (s.cls != clsLit && s.cls < clsAlpha)
		p.minLen += int(s.min)
		if p.maxLen >= 0 {
			if s.max < 0 {
				p.maxLen = -1
			} else {
				p.maxLen += int(s.max)
			}
		}
	}
	if n := len(p.specs); n > 0 {
		if c := p.specs[0]; c.cls == clsLit {
			p.head = c.lit
		}
		if c := p.specs[n-1]; c.cls == clsLit {
			p.tail = c.lit
		}
	}
	return p, nil
}

// result holds the component spans of a successful run plus the
// engine's scratch state. A result may be reused across calls (that is
// the point: steady-state matching allocates nothing) but is only
// valid until the next run that writes into it, and must not be shared
// between concurrent matchers.
type result struct {
	in      string
	starts  []int32
	lens    []int32
	visited []uint64
}

// grow sizes the scratch for an m-spec program over an n-byte input.
func (r *result) grow(m, n int) {
	if cap(r.starts) < m {
		r.starts = make([]int32, m)
		r.lens = make([]int32, m)
	}
	r.starts = r.starts[:m]
	r.lens = r.lens[:m]
	words := (m*(n+1) + 63) / 64
	if cap(r.visited) < words {
		r.visited = make([]uint64, words)
	}
	r.visited = r.visited[:words]
	clear(r.visited)
}

// part returns the substring component i matched in the last
// successful run.
func (r *result) part(i int) string {
	return r.in[r.starts[i] : r.starts[i]+r.lens[i]]
}

// parts appends every component's matched substring to dst — the
// evidence phase 3's specialization reads.
func (r *result) parts(dst []string) []string {
	for i := range r.starts {
		dst = append(dst, r.part(i))
	}
	return dst
}

// run matches the program against the whole input (the dialect is
// implicitly ^…$-anchored). On success the result holds every
// component's span; on failure its contents are unspecified.
func (p *prog) run(in string, res *result) bool {
	n := len(in)
	if n < p.minLen || (p.maxLen >= 0 && n > p.maxLen) {
		return false
	}
	if p.head != "" && !strings.HasPrefix(in, p.head) {
		return false
	}
	if p.tail != "" && !strings.HasSuffix(in, p.tail) {
		return false
	}
	res.grow(len(p.specs), n)
	// The byte-wise search is exact whenever every repetition unit is
	// one byte; only negated classes can consume multi-byte runes, and
	// the stdlib counts those as single units, so such programs take
	// the rune-counting search on non-ASCII input.
	var ok bool
	if p.hasNeg && !isASCII(in) {
		ok = p.matchRunes(in, res)
	} else {
		ok = p.match(in, res)
	}
	res.in = in
	return ok
}

// isASCII reports whether the input is free of multi-byte runes (and
// of invalid UTF-8, which the stdlib also decodes one byte at a time
// but as U+FFFD units).
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// match runs the memoized leftmost-first search. starts/lens in res
// describe the successful path when it returns true.
func (p *prog) match(in string, res *result) bool {
	m := len(p.specs)
	n := len(in)
	starts, lens, visited := res.starts, res.lens, res.visited
	stride := n + 1
	ci, pos := 0, 0
	for {
		// Forward: place component ci at pos with its greediest width.
		if ci == m {
			if pos == n {
				return true
			}
			// Input left over: fall through to backtracking.
		} else if bit := ci*stride + pos; visited[bit>>6]&(1<<(bit&63)) == 0 {
			sp := &p.specs[ci]
			starts[ci] = int32(pos)
			if sp.cls == clsLit {
				if len(sp.lit) <= n-pos && in[pos:pos+len(sp.lit)] == sp.lit {
					lens[ci] = int32(len(sp.lit))
					pos += len(sp.lit)
					ci++
					continue
				}
				visited[bit>>6] |= 1 << (bit & 63)
			} else {
				tab := &classTabs[sp.cls]
				limit := n - pos
				if sp.max >= 0 && int(sp.max) < limit {
					limit = int(sp.max)
				}
				run := 0
				for run < limit && tab[in[pos+run]] {
					run++
				}
				if run >= int(sp.min) {
					lens[ci] = int32(run)
					pos += run
					ci++
					continue
				}
				visited[bit>>6] |= 1 << (bit & 63)
			}
		}
		// Backtrack: shrink the most recent repetition that still has
		// slack; components exhausted at their position are memoized as
		// dead states so no other path re-explores them.
		for {
			ci--
			if ci < 0 {
				return false
			}
			sp := &p.specs[ci]
			pos = int(starts[ci])
			if sp.cls != clsLit && lens[ci] > sp.min {
				lens[ci]--
				pos += int(lens[ci])
				ci++
				break
			}
			bit := ci*stride + pos
			visited[bit>>6] |= 1 << (bit & 63)
		}
	}
}

// matchRunes is the rune-counting variant of match, used for programs
// with negated classes on non-ASCII input. Positions and spans stay in
// bytes (part slices the input), but repetition bounds count stdlib
// units: one unit per rune, with each invalid-UTF-8 byte a one-byte
// U+FFFD unit, exactly utf8.DecodeRuneInString's decomposition. The
// unit decomposition from a given byte offset is deterministic, so the
// memo bitset over (component, byte position) states stays sound, and
// shrinking a repetition by one unit can rescan its already-matched
// bytes instead of carrying per-width scratch.
func (p *prog) matchRunes(in string, res *result) bool {
	m := len(p.specs)
	n := len(in)
	starts, lens, visited := res.starts, res.lens, res.visited
	stride := n + 1
	ci, pos := 0, 0
	for {
		if ci == m {
			if pos == n {
				return true
			}
		} else if bit := ci*stride + pos; visited[bit>>6]&(1<<(bit&63)) == 0 {
			sp := &p.specs[ci]
			starts[ci] = int32(pos)
			if sp.cls == clsLit {
				if len(sp.lit) <= n-pos && in[pos:pos+len(sp.lit)] == sp.lit {
					lens[ci] = int32(len(sp.lit))
					pos += len(sp.lit)
					ci++
					continue
				}
				visited[bit>>6] |= 1 << (bit & 63)
			} else {
				tab := &classTabs[sp.cls]
				// Positive classes (clsAlpha and later in the index
				// order) are pure ASCII and never match a multi-byte
				// rune; negated classes exclude one ASCII character,
				// so every non-ASCII rune (and U+FFFD) matches.
				neg := sp.cls < clsAlpha
				blen, units := 0, 0
				for pos+blen < n && (sp.max < 0 || units < int(sp.max)) {
					if c := in[pos+blen]; c < utf8.RuneSelf {
						if !tab[c] {
							break
						}
						blen++
					} else if neg {
						_, size := utf8.DecodeRuneInString(in[pos+blen:])
						blen += size
					} else {
						break
					}
					units++
				}
				if units >= int(sp.min) {
					lens[ci] = int32(blen)
					pos += blen
					ci++
					continue
				}
				visited[bit>>6] |= 1 << (bit & 63)
			}
		}
		for {
			ci--
			if ci < 0 {
				return false
			}
			sp := &p.specs[ci]
			pos = int(starts[ci])
			if sp.cls != clsLit && lens[ci] > 0 {
				nl, nu := runeBack(in, pos, int(lens[ci]))
				if nu >= int(sp.min) {
					lens[ci] = int32(nl)
					pos += nl
					ci++
					break
				}
			}
			bit := ci*stride + pos
			visited[bit>>6] |= 1 << (bit & 63)
		}
	}
}

// runeBack rescans a matched repetition of blen bytes starting at
// start and returns the byte length and unit count of the run shrunk
// by one unit. Rescanning forward reproduces the exact decomposition
// the greedy scan used; decoding backwards would not (an invalid lead
// byte followed by a continuation byte is two forward units but one
// ambiguous backward step).
func runeBack(in string, start, blen int) (newLen, newUnits int) {
	prev, units, b := 0, 0, 0
	for b < blen {
		prev = b
		if in[start+b] < utf8.RuneSelf {
			b++
		} else {
			_, size := utf8.DecodeRuneInString(in[start+b:])
			b += size
		}
		units++
	}
	return prev, units - 1
}
