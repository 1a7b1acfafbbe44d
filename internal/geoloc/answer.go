package geoloc

import (
	"errors"
	"strconv"
	"strings"

	"hoiho/internal/core"
)

// ErrLongField is AppendTXT's refusal of a key=value field longer than
// the 255 bytes a DNS character-string can hold.
var ErrLongField = errors.New("geoloc: answer field exceeds 255 bytes")

// answerFields is the number of key=value fields appendField walks.
const answerFields = 9

// appendField appends field i of a located answer, as key=value, to b.
// It is the one definition of the fields AnswerStrings and AppendTXT
// render, in their order. The keys mirror the /v1 JSON field names
// (city, region, country, lat, long, suffix, hint, type, learned) so
// the two front ends stay mechanically comparable: joining these pairs
// and the JSON body must describe the same answer. An empty region and
// a false learned flag are omitted, like their omitempty JSON
// counterparts: for those it reports false and returns b unchanged.
func appendField(b []byte, g *core.Geolocation, i int) ([]byte, bool) {
	switch i {
	case 0:
		return append(append(b, "city="...), g.Loc.City...), true
	case 1:
		if g.Loc.Region == "" {
			return b, false
		}
		return append(append(b, "region="...), g.Loc.Region...), true
	case 2:
		return append(append(b, "country="...), g.Loc.Country...), true
	case 3:
		return strconv.AppendFloat(append(b, "lat="...), g.Loc.Pos.Lat, 'g', -1, 64), true
	case 4:
		return strconv.AppendFloat(append(b, "long="...), g.Loc.Pos.Long, 'g', -1, 64), true
	case 5:
		return append(append(b, "suffix="...), g.Suffix...), true
	case 6:
		return append(append(b, "hint="...), g.Hint...), true
	case 7:
		return append(append(b, "type="...), g.Type.String()...), true
	default:
		if !g.Learned {
			return b, false
		}
		return append(b, "learned=true"...), true
	}
}

// AnswerStrings renders a geolocation as key=value strings — the TXT
// RDATA the geodns daemon serves, one character-string per field (see
// appendField for the fields). It returns nil for a geolocation
// without a location.
func AnswerStrings(g *core.Geolocation) []string {
	if g == nil || g.Loc == nil {
		return nil
	}
	out := make([]string, 0, answerFields)
	var buf []byte
	for i := range answerFields {
		var ok bool
		if buf, ok = appendField(buf[:0], g, i); ok {
			out = append(out, string(buf))
		}
	}
	return out
}

// AppendTXT appends the RDATA of the TXT record geodns serves for g to
// b: each of AnswerStrings' fields as a DNS character-string, a length
// byte and then the bytes, rendered in place. A field longer than 255
// bytes is ErrLongField, with b returned unchanged. A geolocation
// without a location appends nothing.
func AppendTXT(b []byte, g *core.Geolocation) ([]byte, error) {
	if g == nil || g.Loc == nil {
		return b, nil
	}
	start := len(b)
	for i := range answerFields {
		at := len(b)
		var ok bool
		if b, ok = appendField(append(b, 0), g, i); !ok {
			b = b[:at]
			continue
		}
		n := len(b) - at - 1
		if n > 255 {
			return b[:start], ErrLongField
		}
		b[at] = byte(n)
	}
	return b, nil
}

// PTRTarget renders a geolocation as a synthetic domain name under the
// RFC 2606 reserved "invalid." TLD — the type-correct payload for a
// PTR answer: <city>.<region>.<country>.geo.invalid., with the region
// label omitted when the location has none. Label bytes that DNS
// presentation format or common tooling would trip on (spaces, dots,
// anything outside lower-case alphanumerics and '-') are folded to
// '-' so the name never needs escaping.
func PTRTarget(g *core.Geolocation) string {
	if g == nil || g.Loc == nil {
		return ""
	}
	var b strings.Builder
	for _, label := range []string{g.Loc.City, g.Loc.Region, g.Loc.Country} {
		if label == "" {
			continue
		}
		for i := 0; i < len(label); i++ {
			c := label[i]
			if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' {
				b.WriteByte(c)
			} else {
				b.WriteByte('-')
			}
		}
		b.WriteByte('.')
	}
	b.WriteString("geo.invalid.")
	return b.String()
}
