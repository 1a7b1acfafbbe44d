package dnswire

// The packer this package shipped before compression moved to a
// hash-indexed registry, kept as the reference the new one must match
// byte for byte (FuzzDNSMessage, TestPackManyRecordsMatchesOracle). It
// splits each name into label slices and keys a map by every suffix's
// wire bytes, with an insertion log for rollback.

// oraclePackMessage is the old Pack (truncate false) and PackTruncated
// (truncate true), limit clamped as PackTruncated clamps it.
func oraclePackMessage(m *Message, limit int, truncate bool) ([]byte, error) {
	if limit > MaxMessageLen {
		limit = MaxMessageLen
	}
	return oraclePack(m, limit, truncate)
}

// oraclePacker accumulates the wire image and the compression map. The map
// records where each name suffix was written; mark/rollback undo a
// record that overflowed the size limit, compression entries included,
// so later records cannot point into bytes that were rolled away.
type oraclePacker struct {
	buf     []byte
	cmp     map[string]int
	cmpKeys []string // insertion log, for rollback
}

type oracleMark struct {
	buf, keys int
}

func (p *oraclePacker) mark() oracleMark { return oracleMark{len(p.buf), len(p.cmpKeys)} }

func (p *oraclePacker) rollback(m oracleMark) {
	for _, k := range p.cmpKeys[m.keys:] {
		delete(p.cmp, k)
	}
	p.cmpKeys = p.cmpKeys[:m.keys]
	p.buf = p.buf[:m.buf]
}

func oraclePack(m *Message, limit int, truncate bool) ([]byte, error) {
	if m.RCode > 0xFFF || (m.RCode > 0xF && m.EDNS == nil) {
		return nil, ErrBadRCode
	}
	if len(m.Questions) > MaxMessageLen {
		return nil, ErrMessageTooLong // section counts are 16-bit
	}
	p := &oraclePacker{buf: make([]byte, headerLen, 512), cmp: make(map[string]int)}

	// The OPT record is written last but reserved for throughout: no
	// earlier record may eat the bytes it needs.
	optLen := 0
	if m.EDNS != nil {
		optLen = 11 // root name + type + class + ttl + rdlength
		for _, o := range m.EDNS.Options {
			optLen += 4 + len(o.Data)
		}
	}

	for _, q := range m.Questions {
		if err := p.packName(q.Name, true); err != nil {
			return nil, err
		}
		p.buf = append(p.buf, byte(q.Type>>8), byte(q.Type), byte(q.Class>>8), byte(q.Class))
	}
	if len(p.buf)+optLen > limit {
		return nil, ErrMessageTooLong // questions and OPT cannot be dropped
	}

	// Records are packed answer → authority → additional; the first one
	// that would overflow the limit stops the message there.
	full := true
	packSection := func(rrs []RR) (kept int, err error) {
		for _, rr := range rrs {
			if !full {
				return kept, nil
			}
			mk := p.mark()
			if err := p.packRR(rr); err != nil {
				return 0, err
			}
			if len(p.buf)+optLen > limit {
				p.rollback(mk)
				full = false
				return kept, nil
			}
			kept++
		}
		return kept, nil
	}
	an, err := packSection(m.Answers)
	if err != nil {
		return nil, err
	}
	ns, err := packSection(m.Authority)
	if err != nil {
		return nil, err
	}
	ar, err := packSection(m.Additional)
	if err != nil {
		return nil, err
	}
	dropped := len(m.Answers) - an + len(m.Authority) - ns
	if !full && !truncate {
		return nil, ErrMessageTooLong
	}
	if m.EDNS != nil {
		if err := p.packOPT(m.EDNS, m.RCode); err != nil {
			return nil, err
		}
		ar++
	}

	flags := uint16(m.RCode & 0xF)
	if m.Response {
		flags |= 0x8000
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= 0x0400
	}
	if m.Truncated || dropped > 0 {
		flags |= 0x0200
	}
	if m.RecursionDesired {
		flags |= 0x0100
	}
	if m.RecursionAvailable {
		flags |= 0x0080
	}
	if m.Zero {
		flags |= 0x0040
	}
	if m.AuthenticData {
		flags |= 0x0020
	}
	if m.CheckingDisabled {
		flags |= 0x0010
	}
	h := p.buf[:headerLen]
	put16(h[0:], m.ID)
	put16(h[2:], flags)
	put16(h[4:], uint16(len(m.Questions)))
	put16(h[6:], uint16(an))
	put16(h[8:], uint16(ns))
	put16(h[10:], uint16(ar))
	return p.buf, nil
}

// packName writes a name, reusing an existing suffix via a compression
// pointer when compress is set. Every suffix actually written at an
// offset below 0x4000 (the 14-bit pointer ceiling) is registered as a
// future target, first occurrence winning.
func (p *oraclePacker) packName(name string, compress bool) error {
	labels, err := oracleSplitName(name)
	if err != nil {
		return err
	}
	for i := range labels {
		key := oracleSuffixKey(labels[i:])
		if off, ok := p.cmp[key]; ok && compress {
			p.buf = append(p.buf, 0xC0|byte(off>>8), byte(off))
			return nil
		}
		if off := len(p.buf); off < 0x4000 {
			if _, exists := p.cmp[key]; !exists {
				p.cmp[key] = off
				p.cmpKeys = append(p.cmpKeys, key)
			}
		}
		p.buf = append(p.buf, byte(len(labels[i])))
		p.buf = append(p.buf, labels[i]...)
	}
	p.buf = append(p.buf, 0)
	return nil
}

// oracleSuffixKey is the exact-bytes identity of a label suffix: length-
// prefixed labels, the uncompressed wire spelling. Compression is
// byte-exact (no case folding), which keeps encoding deterministic.
func oracleSuffixKey(labels [][]byte) string {
	n := 0
	for _, l := range labels {
		n += 1 + len(l)
	}
	key := make([]byte, 0, n)
	for _, l := range labels {
		key = append(key, byte(len(l)))
		key = append(key, l...)
	}
	return string(key)
}

// packRR writes one resource record: owner name (compressible), fixed
// header, and typed RDATA with its length backpatched.
func (p *oraclePacker) packRR(rr RR) error {
	if rr.Data == nil {
		return ErrBadRData
	}
	if err := p.packName(rr.Name, true); err != nil {
		return err
	}
	typ := rr.Data.Type()
	p.buf = append(p.buf,
		byte(typ>>8), byte(typ),
		byte(rr.Class>>8), byte(rr.Class),
		byte(rr.TTL>>24), byte(rr.TTL>>16), byte(rr.TTL>>8), byte(rr.TTL),
		0, 0) // RDLENGTH, backpatched below
	lenAt := len(p.buf) - 2
	start := len(p.buf)
	switch d := rr.Data.(type) {
	case A:
		p.buf = append(p.buf, d[:]...)
	case PTR:
		if err := p.packName(string(d), true); err != nil {
			return err
		}
	case TXT:
		for _, s := range d {
			if len(s) > 255 {
				return ErrBadRData
			}
			p.buf = append(p.buf, byte(len(s)))
			p.buf = append(p.buf, s...)
		}
	case LOC:
		p.buf = append(p.buf, d.Version, d.Size, d.HorizPre, d.VertPre)
		p.buf = append32(p.buf, d.Latitude)
		p.buf = append32(p.buf, d.Longitude)
		p.buf = append32(p.buf, d.Altitude)
	case Raw:
		if len(d.Data) > MaxMessageLen {
			return ErrBadRData
		}
		p.buf = append(p.buf, d.Data...)
	default: // optData or a foreign RData implementation
		return ErrBadOPT
	}
	rdlen := len(p.buf) - start
	if rdlen > MaxMessageLen {
		return ErrBadRData
	}
	put16(p.buf[lenAt:], uint16(rdlen))
	return nil
}

// packOPT writes the EDNS OPT pseudo-record: root owner, payload size
// in CLASS, extended rcode/version/flags in TTL, options as RDATA.
func (p *oraclePacker) packOPT(e *EDNS, rcode RCode) error {
	ttl := uint32(rcode>>4)<<24 | uint32(e.Version)<<16 | uint32(e.Z&0x7FFF)
	if e.DO {
		ttl |= 0x8000
	}
	p.buf = append(p.buf, 0, // root name
		byte(TypeOPT>>8), byte(TypeOPT),
		byte(e.UDPSize>>8), byte(e.UDPSize),
		byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl),
		0, 0)
	lenAt := len(p.buf) - 2
	start := len(p.buf)
	for _, o := range e.Options {
		if len(o.Data) > MaxMessageLen {
			return ErrBadRData
		}
		p.buf = append(p.buf, byte(o.Code>>8), byte(o.Code), byte(len(o.Data)>>8), byte(len(o.Data)))
		p.buf = append(p.buf, o.Data...)
	}
	rdlen := len(p.buf) - start
	if rdlen > MaxMessageLen {
		return ErrBadRData
	}
	put16(p.buf[lenAt:], uint16(rdlen))
	return nil
}

// oracleSplitName parses a presentation-format name into raw label byte
// slices. Both fully-qualified ("a.b.") and bare ("a.b") spellings are
// accepted; "." is the root (no labels). Empty names, empty labels,
// dangling or malformed escapes, 64-byte labels, and names beyond the
// 255-byte wire limit are errors.
func oracleSplitName(name string) ([][]byte, error) {
	if name == "" {
		return nil, ErrBadName
	}
	if name == "." {
		return nil, nil
	}
	var labels [][]byte
	var cur []byte
	i := 0
	for i < len(name) {
		switch c := name[i]; {
		case c == '\\':
			if i+1 >= len(name) {
				return nil, ErrBadName
			}
			d := name[i+1]
			if d >= '0' && d <= '9' {
				if i+3 >= len(name) || !isDigit(name[i+2]) || !isDigit(name[i+3]) {
					return nil, ErrBadName
				}
				v := int(d-'0')*100 + int(name[i+2]-'0')*10 + int(name[i+3]-'0')
				if v > 255 {
					return nil, ErrBadName
				}
				cur = append(cur, byte(v))
				i += 4
			} else {
				cur = append(cur, d)
				i += 2
			}
		case c == '.':
			if len(cur) == 0 {
				return nil, ErrBadName // leading dot or ".."
			}
			if len(cur) > maxLabel {
				return nil, ErrLabelTooLong
			}
			labels = append(labels, cur)
			cur = nil
			i++
		default:
			cur = append(cur, c)
			i++
		}
	}
	if len(cur) > 0 { // bare spelling: final label has no trailing dot
		if len(cur) > maxLabel {
			return nil, ErrLabelTooLong
		}
		labels = append(labels, cur)
	}
	wire := 1
	for _, l := range labels {
		wire += 1 + len(l)
	}
	if wire > maxNameWire {
		return nil, ErrNameTooLong
	}
	return labels, nil
}
