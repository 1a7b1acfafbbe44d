package dnswire

// Domain names cross the codec boundary as presentation-format strings
// — labels joined with dots, fully qualified with a trailing dot, root
// spelled "." — because that is what the serving layer looks up and
// what tests want to read. Label bytes that would be ambiguous or
// unprintable are escaped RFC 1035-style: `\.` and `\\` for the two
// metacharacters, `\DDD` (three decimal digits) for anything outside
// the visible-ASCII range. Decoding always emits this canonical form,
// so decode→encode→decode is a fixpoint even for names whose labels
// contain dots, backslashes, or arbitrary bytes.

// maxPointerHops bounds a decompression walk. Strictly-decreasing
// pointer targets already guarantee termination; the budget is a
// second, unconditional stop so a review of unpackName never has to
// trust the monotonicity argument alone (DESIGN.md §12).
const maxPointerHops = 127

// maxNameWire is the RFC 1035 §2.3.4 limit on a name's wire length:
// every label length byte plus label bytes plus the final zero.
const maxNameWire = 255

// maxLabel is the longest single label.
const maxLabel = 63

// parseName converts a presentation-format name to uncompressed wire
// form in w — length-prefixed labels, then the root's zero byte — and
// returns the wire length, the label count, and in starts each label's
// offset in w. Both fully-qualified ("a.b.") and bare ("a.b")
// spellings are accepted; "." is the root (no labels). Empty names,
// empty labels, dangling or malformed escapes, 64-byte labels, and
// names beyond the 255-byte wire limit are errors. A name past the
// limit is still scanned to its end, so its syntax errors are reported
// first, as a split into labels would report them.
func parseName(name string, w *[maxNameWire]byte, starts *[maxNameWire / 2]uint8) (n, labels int, err error) {
	if name == "" {
		return 0, 0, ErrBadName
	}
	if name == "." {
		w[0] = 0
		return 1, 0, nil
	}
	// n counts wire bytes even past len(w), where nothing is stored;
	// at is the offset of the open label's length byte, size its length.
	at, size := 0, 0
	closeLabel := func() error {
		if size > maxLabel {
			return ErrLabelTooLong
		}
		if at < len(w) && labels < len(starts) {
			w[at] = byte(size)
			starts[labels] = uint8(at)
		}
		labels++
		size = 0
		return nil
	}
	for i := 0; i < len(name); {
		c := name[i]
		switch {
		case c == '\\':
			if i+1 >= len(name) {
				return 0, 0, ErrBadName
			}
			d := name[i+1]
			if d >= '0' && d <= '9' {
				if i+3 >= len(name) || !isDigit(name[i+2]) || !isDigit(name[i+3]) {
					return 0, 0, ErrBadName
				}
				v := int(d-'0')*100 + int(name[i+2]-'0')*10 + int(name[i+3]-'0')
				if v > 255 {
					return 0, 0, ErrBadName
				}
				c = byte(v)
				i += 4
			} else {
				c = d
				i += 2
			}
		case c == '.':
			if size == 0 {
				return 0, 0, ErrBadName // leading dot or ".."
			}
			if err := closeLabel(); err != nil {
				return 0, 0, err
			}
			i++
			continue
		default:
			i++
		}
		if size == 0 {
			at = n // the length byte, written when the label closes
			n++
		}
		if n < len(w) {
			w[n] = c
		}
		n++
		size++
	}
	if size > 0 { // bare spelling: final label has no trailing dot
		if err := closeLabel(); err != nil {
			return 0, 0, err
		}
	}
	if n >= len(w) {
		return 0, 0, ErrNameTooLong
	}
	w[n] = 0
	return n + 1, labels, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// appendEscaped appends one label in canonical presentation form.
func appendEscaped(dst, label []byte) []byte {
	for _, b := range label {
		switch {
		case b == '.' || b == '\\':
			dst = append(dst, '\\', b)
		case b < '!' || b > '~':
			dst = append(dst, '\\', '0'+b/100, '0'+(b/10)%10, '0'+b%10)
		default:
			dst = append(dst, b)
		}
	}
	return dst
}

// unpackName decodes the name starting at off, following compression
// pointers. It returns the canonical presentation form and the offset
// of the first byte after the name's in-place portion (i.e. after the
// first pointer, or after the terminating zero).
//
// Loop safety is structural, not heuristic: every pointer must target
// an offset strictly below both its own position and every previous
// target, which is exactly what a real encoder produces (each stored
// name's tail can only reference an earlier stored name) and which
// makes the walk's target sequence strictly decreasing — so it
// terminates. maxPointerHops is a belt-and-braces cap on top, and the
// 255-byte wire accounting bounds the label bytes walked between hops.
func unpackName(msg []byte, off int) (string, int, error) {
	// A name without escapes fits the stack buffer; string(out) is then
	// the one allocation.
	var stack [maxNameWire]byte
	out := stack[:0]
	pos, next := off, -1
	hops, wire := 0, 0
	lastTarget := 1 << 30
	for {
		if pos >= len(msg) {
			return "", 0, ErrShortMessage
		}
		switch b := msg[pos]; {
		case b == 0:
			wire++
			if wire > maxNameWire {
				return "", 0, ErrNameTooLong
			}
			if next < 0 {
				next = pos + 1
			}
			if len(out) == 0 {
				return ".", next, nil
			}
			return string(out), next, nil
		case b < 0x40: // ordinary label
			end := pos + 1 + int(b)
			if end > len(msg) {
				return "", 0, ErrShortMessage
			}
			wire += 1 + int(b)
			if wire > maxNameWire {
				return "", 0, ErrNameTooLong
			}
			out = appendEscaped(out, msg[pos+1:end])
			out = append(out, '.')
			pos = end
		case b >= 0xC0: // compression pointer
			if pos+2 > len(msg) {
				return "", 0, ErrShortMessage
			}
			target := int(b&0x3F)<<8 | int(msg[pos+1])
			if next < 0 {
				next = pos + 2
			}
			if target >= pos || target >= lastTarget {
				return "", 0, ErrPointerLoop
			}
			hops++
			if hops > maxPointerHops {
				return "", 0, ErrPointerLoop
			}
			lastTarget = target
			pos = target
		default: // 0x40–0xBF: reserved label types
			return "", 0, ErrBadLabel
		}
	}
}
