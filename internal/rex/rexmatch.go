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
// The search scans bytes, while the stdlib counts repetition units in
// runes (each invalid-UTF-8 byte its own U+FFFD unit). The two agree
// whenever no span boundary falls inside a multi-byte unit, so for a
// program with a negated class ([^\.], [^-], the newline-excluding .)
// run first marks every (component, position) state inside such a
// unit dead. That is exact because positive classes consume only
// ASCII, every literal is ASCII or the "."+suffix tail that ends the
// input, and a greedy negated run stops only at an excluded ASCII byte
// or the end of the input: a give-back that lands inside a unit hits a
// dead state and gives back again, so the search tries exactly the
// rune-aligned assignments, in the stdlib's order. (The differential
// fuzz target found the divergence this prevents: three adjacent
// ([^\.]+) groups must not match a two-rune three-byte input by
// splitting a rune.)
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
	hasNeg bool   // any negated class: states inside a multi-byte rune are dead
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
	if p.hasNeg {
		// ASCII input, the production case, has no rune to split and
		// is scanned here without a call.
		for i := 0; i < n; i++ {
			if in[i] >= utf8.RuneSelf {
				res.killInsideRunes(in, i)
				break
			}
		}
	}
	ok := p.match(in, res)
	res.in = in
	return ok
}

// killInsideRunes marks dead every state whose position falls inside a
// multi-byte unit of in, scanning from byte from, which begins a unit.
// Units follow utf8.DecodeRuneInString's forward decomposition (an
// invalid byte is a one-byte unit). A span boundary inside one would
// split a rune the stdlib counts as one.
func (r *result) killInsideRunes(in string, from int) {
	stride := len(in) + 1
	for i := from; i < len(in); {
		_, size := utf8.DecodeRuneInString(in[i:])
		for pos := i + 1; pos < i+size; pos++ {
			for ci := range r.starts {
				bit := ci*stride + pos
				r.visited[bit>>6] |= 1 << (bit & 63)
			}
		}
		i += size
	}
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
