package itdk

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"hoiho/internal/geo"
)

// The corpus file formats follow the ITDK's line-oriented layout:
//
//	nodes:  node N<id>:  <addr> <addr> ...
//	names:  node.name N<id> <addr> <hostname>
//	geo:    node.geo N<id>: <lat> <long> <city>|<region>|<country>
//
// Comment lines begin with '#'. WriteNodes/WriteNames/WriteGeo emit these
// formats; ReadCorpus consumes all three from a combined stream or from
// separate streams applied in order (nodes first).

// WriteNodes emits the corpus's routers and interface addresses.
func WriteNodes(w io.Writer, c *Corpus) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d routers\n", c.Name, c.Len())
	for _, r := range c.Routers {
		fmt.Fprintf(bw, "node %s: ", r.ID)
		for i, ifc := range r.Interfaces {
			if i > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteString(ifc.Addr.String())
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteNames emits hostname records for interfaces with PTR records.
func WriteNames(w io.Writer, c *Corpus) error {
	bw := bufio.NewWriter(w)
	for _, r := range c.Routers {
		for _, ifc := range r.Interfaces {
			if ifc.Hostname != "" {
				fmt.Fprintf(bw, "node.name %s %s %s\n", r.ID, ifc.Addr, ifc.Hostname)
			}
		}
	}
	return bw.Flush()
}

// WriteGeo emits ground-truth records for routers that have them.
func WriteGeo(w io.Writer, c *Corpus) error {
	bw := bufio.NewWriter(w)
	for _, r := range c.Routers {
		if r.Truth == nil {
			continue
		}
		t := r.Truth
		fmt.Fprintf(bw, "node.geo %s: %.4f %.4f %s|%s|%s\n",
			r.ID, t.Pos.Lat, t.Pos.Long, t.City, t.Region, t.Country)
	}
	return bw.Flush()
}

// WriteLinks emits router-level adjacency records ("link N1 N2").
func WriteLinks(w io.Writer, c *Corpus) error {
	bw := bufio.NewWriter(w)
	for _, l := range c.Links {
		fmt.Fprintf(bw, "link %s %s\n", l.A, l.B)
	}
	return bw.Flush()
}

// ReadCorpus parses any mix of node, node.name, node.geo, and link
// records from r into a new corpus. node records must precede the
// records that reference them.
func ReadCorpus(r io.Reader, name string, ipv6 bool) (*Corpus, error) {
	c := NewCorpus(name, ipv6)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if err := parseRecord(c, text); err != nil {
			return nil, fmt.Errorf("itdk: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// parseRecord applies one record to c. Every field is a slice of the
// line, so what a Router keeps is cloned: a slice would keep the whole
// line alive with it.
func parseRecord(c *Corpus, text string) error {
	fields := strings.Fields(text)
	switch fields[0] {
	case "node":
		if len(fields) < 2 {
			return fmt.Errorf("short node record")
		}
		id := strings.Clone(strings.TrimSuffix(fields[1], ":"))
		r := &Router{ID: id}
		for _, a := range fields[2:] {
			addr, err := netip.ParseAddr(a)
			if err != nil {
				return fmt.Errorf("bad address %q: %w", a, err)
			}
			r.Interfaces = append(r.Interfaces, Interface{Addr: addr})
		}
		return c.Add(r)
	case "node.name":
		if len(fields) != 4 {
			return fmt.Errorf("node.name wants 4 fields, got %d", len(fields))
		}
		r := c.Router(fields[1])
		if r == nil {
			return fmt.Errorf("node.name references unknown router %s", fields[1])
		}
		addr, err := netip.ParseAddr(fields[2])
		if err != nil {
			return fmt.Errorf("bad address %q: %w", fields[2], err)
		}
		for i := range r.Interfaces {
			if r.Interfaces[i].Addr == addr {
				// ToLower returns its input when it is already lower case.
				r.Interfaces[i].Hostname = strings.Clone(strings.ToLower(fields[3]))
				return nil
			}
		}
		return fmt.Errorf("node.name references unknown interface %s on %s", addr, r.ID)
	case "node.geo":
		if len(fields) < 5 {
			return fmt.Errorf("node.geo wants 5 fields, got %d", len(fields))
		}
		// City names may contain spaces ("new york|ny|us"); everything
		// from the fifth field on is the location triple.
		fields[4] = strings.Join(fields[4:], " ")
		fields = fields[:5]
		id := strings.TrimSuffix(fields[1], ":")
		r := c.Router(id)
		if r == nil {
			return fmt.Errorf("node.geo references unknown router %s", id)
		}
		lat, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return fmt.Errorf("bad latitude: %w", err)
		}
		long, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return fmt.Errorf("bad longitude: %w", err)
		}
		parts := strings.Split(fields[4], "|")
		if len(parts) != 3 {
			return fmt.Errorf("bad location %q", fields[4])
		}
		r.Truth = &GroundTruth{
			City: strings.Clone(parts[0]), Region: strings.Clone(parts[1]), Country: strings.Clone(parts[2]),
			Pos: geo.LatLong{Lat: lat, Long: long},
		}
		return nil
	case "link":
		if len(fields) != 3 {
			return fmt.Errorf("link wants 3 fields, got %d", len(fields))
		}
		return c.AddLink(fields[1], fields[2])
	default:
		return fmt.Errorf("unknown record type %q", fields[0])
	}
}
