package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"hoiho/internal/geo"
	"hoiho/internal/geodict"
	"hoiho/internal/rex"
)

// The published naming-convention format mirrors the dataset the paper
// releases alongside the source code: a line-oriented file others can
// apply without access to a measurement infrastructure.
//
//	suffix <domain> <class> tp=<n> fp=<n> fn=<n> unk=<n> hints=<n>
//	regex <hint-type> <role,role,...> <pattern>
//	learned <hint-type> <hint> <lat> <long> <city>|<region>|<country> tp=<n> fp=<n> collide=<bool>
//
// Records for a suffix follow its suffix line; comments begin with '#'.

// WriteConventions serialises the result's conventions, sorted by
// suffix, in the published format.
func WriteConventions(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# hoiho naming conventions: %d suffixes\n", len(res.NCs))
	var suffixes []string
	for s := range res.NCs {
		suffixes = append(suffixes, s)
	}
	sort.Strings(suffixes)
	for _, s := range suffixes {
		nc := res.NCs[s]
		t := nc.Tally
		fmt.Fprintf(bw, "suffix %s %s tp=%d fp=%d fn=%d unk=%d hints=%d\n",
			nc.Suffix, nc.Class, t.TP, t.FP, t.FN, t.UNK, t.UniqueHints)
		for _, r := range nc.Regexes {
			roles := make([]string, 0, 2)
			for _, role := range r.Roles() {
				roles = append(roles, role.String())
			}
			fmt.Fprintf(bw, "regex %s %s %s\n", r.Hint, strings.Join(roles, ","), r)
		}
		for _, lh := range nc.Learned {
			fmt.Fprintf(bw, "learned %s %s %.4f %.4f %s|%s|%s tp=%d fp=%d collide=%v\n",
				lh.Type, lh.Hint, lh.Loc.Pos.Lat, lh.Loc.Pos.Long,
				lh.Loc.City, lh.Loc.Region, lh.Loc.Country, lh.TP, lh.FP, lh.Collide)
		}
	}
	return bw.Flush()
}

// ReadConventions parses a published conventions file back into a
// Result whose NCs can geolocate hostnames (tallies and classes are
// restored; the training corpus is not needed).
func ReadConventions(r io.Reader) (*Result, error) {
	res := &Result{NCs: make(map[string]*NamingConvention)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	var cur *NamingConvention
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "suffix":
			if len(fields) != 8 {
				return nil, fmt.Errorf("core: line %d: malformed suffix record", line)
			}
			cls, err := parseClass(fields[2])
			if err != nil {
				return nil, fmt.Errorf("core: line %d: %w", line, err)
			}
			cur = &NamingConvention{Suffix: fields[1], Class: cls}
			for _, kv := range fields[3:] {
				if err := parseTallyKV(&cur.Tally, kv); err != nil {
					return nil, fmt.Errorf("core: line %d: %w", line, err)
				}
			}
			if _, dup := res.NCs[cur.Suffix]; dup {
				return nil, fmt.Errorf("core: line %d: duplicate suffix %s", line, cur.Suffix)
			}
			res.NCs[cur.Suffix] = cur
		case "regex":
			if cur == nil {
				return nil, fmt.Errorf("core: line %d: regex before suffix", line)
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("core: line %d: malformed regex record", line)
			}
			ht, err := rex.ParseHintType(fields[1])
			if err != nil {
				return nil, fmt.Errorf("core: line %d: %w", line, err)
			}
			var roles []rex.Role
			if fields[2] != "" {
				for _, name := range strings.Split(fields[2], ",") {
					role, err := rex.ParseRole(name)
					if err != nil {
						return nil, fmt.Errorf("core: line %d: %w", line, err)
					}
					roles = append(roles, role)
				}
			}
			pattern := strings.Join(fields[3:], " ")
			re, err := rex.ParsePattern(ht, pattern, roles)
			if err != nil {
				return nil, fmt.Errorf("core: line %d: %w", line, err)
			}
			cur.Regexes = append(cur.Regexes, re)
			cur.noteAnnotations(re)
		case "learned":
			if cur == nil {
				return nil, fmt.Errorf("core: line %d: learned before suffix", line)
			}
			if len(fields) < 9 {
				return nil, fmt.Errorf("core: line %d: malformed learned record", line)
			}
			ht, err := rex.ParseHintType(fields[1])
			if err != nil {
				return nil, fmt.Errorf("core: line %d: %w", line, err)
			}
			lat, err1 := strconv.ParseFloat(fields[3], 64)
			long, err2 := strconv.ParseFloat(fields[4], 64)
			pos := geo.LatLong{Lat: lat, Long: long}
			if err1 != nil || err2 != nil || !pos.Valid() {
				return nil, fmt.Errorf("core: line %d: bad coordinates", line)
			}
			// The location triple may contain spaces in the city name;
			// rejoin everything between the coordinates and the first
			// kv field.
			rest := fields[5:]
			kvStart := len(rest)
			for i, f := range rest {
				if strings.Contains(f, "=") {
					kvStart = i
					break
				}
			}
			trip := strings.Split(strings.Join(rest[:kvStart], " "), "|")
			if len(trip) != 3 {
				return nil, fmt.Errorf("core: line %d: bad location triple", line)
			}
			lh := &LearnedHint{
				Suffix: cur.Suffix, Hint: fields[2], Type: ht,
				Loc: &geodict.Location{
					City: trip[0], Region: trip[1], Country: trip[2], Pos: pos,
				},
			}
			for _, kv := range rest[kvStart:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("core: line %d: bad field %q", line, kv)
				}
				switch k {
				case "tp":
					lh.TP, err = strconv.Atoi(v)
				case "fp":
					lh.FP, err = strconv.Atoi(v)
				case "collide":
					lh.Collide, err = strconv.ParseBool(v)
				default:
					err = fmt.Errorf("unknown field %q", k)
				}
				if err != nil {
					return nil, fmt.Errorf("core: line %d: %w", line, err)
				}
			}
			cur.Learned = append(cur.Learned, lh)
		default:
			return nil, fmt.Errorf("core: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

func parseClass(s string) (Classification, error) {
	switch s {
	case "good":
		return Good, nil
	case "promising":
		return Promising, nil
	case "poor":
		return Poor, nil
	}
	return Poor, fmt.Errorf("unknown classification %q", s)
}

func parseTallyKV(t *Tally, kv string) error {
	k, v, ok := strings.Cut(kv, "=")
	if !ok {
		return fmt.Errorf("bad field %q", kv)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("bad count %q: %w", kv, err)
	}
	switch k {
	case "tp":
		t.TP = n
	case "fp":
		t.FP = n
	case "fn":
		t.FN = n
	case "unk":
		t.UNK = n
	case "hints":
		t.UniqueHints = n
	default:
		return fmt.Errorf("unknown field %q", k)
	}
	return nil
}
