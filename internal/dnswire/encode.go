package dnswire

// Pack encodes the message. Owner names and PTR targets are compressed
// against every name already written (RFC 1035 §4.1.4); the first
// occurrence of each suffix is the canonical pointer target, so
// encoding is deterministic — the same Message always yields the same
// bytes. A message that cannot fit 65535 bytes is ErrMessageTooLong.
func (m *Message) Pack() ([]byte, error) {
	return m.appendMessage(nil, MaxMessageLen, false)
}

// PackTruncated encodes the message to fit within limit bytes — the
// negotiated UDP payload size — by dropping whole records from the
// tail: additional records go first, then authority, then answers (the
// EDNS OPT record, which carries the size negotiation itself, is
// always kept). The TC bit is set only when an answer or authority
// record was dropped; losing additional data alone does not ask the
// client to retry over TCP. The header, question section, and OPT must
// fit outright, or the result is ErrMessageTooLong.
func (m *Message) PackTruncated(limit int) ([]byte, error) {
	return m.AppendTruncated(nil, limit)
}

// AppendTruncated is PackTruncated appending the message to b, so a
// caller can pack every reply into one buffer it owns, behind any
// prefix it wants (a TCP length field, say): compression offsets and
// limit count from the message's first byte, len(b) on entry. A nil b
// starts a 512-byte buffer. On error it returns b unchanged.
func (m *Message) AppendTruncated(b []byte, limit int) ([]byte, error) {
	if limit > MaxMessageLen {
		limit = MaxMessageLen
	}
	return m.appendMessage(b, limit, true)
}

// packer appends one message to buf, after the base bytes the caller
// had there. mark/rollback undo a record that overflowed the size
// limit, its compression entries included, so later records cannot
// point into bytes that were rolled away.
type packer struct {
	buf  []byte
	base int
	cmp  compressor
}

// size is the length of the message packed so far.
func (p *packer) size() int { return len(p.buf) - p.base }

type packMark struct {
	buf, ents int
}

func (p *packer) mark() packMark { return packMark{len(p.buf), p.cmp.n} }

func (p *packer) rollback(m packMark) {
	p.cmp.truncate(m.ents)
	p.buf = p.buf[:m.buf]
}

// appendMessage is the one packer behind Pack, PackTruncated and
// AppendTruncated: with truncate unset, a record past limit is
// ErrMessageTooLong instead of being dropped.
func (m *Message) appendMessage(b []byte, limit int, truncate bool) ([]byte, error) {
	if m.RCode > 0xFFF || (m.RCode > 0xF && m.EDNS == nil) {
		return b, ErrBadRCode
	}
	if len(m.Questions) > MaxMessageLen {
		return b, ErrMessageTooLong // section counts are 16-bit
	}
	if b == nil {
		b = make([]byte, 0, 512)
	}
	p := packer{buf: append(b, make([]byte, headerLen)...), base: len(b)}

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
		if err := p.packName(q.Name); err != nil {
			return b, err
		}
		p.buf = append(p.buf, byte(q.Type>>8), byte(q.Type), byte(q.Class>>8), byte(q.Class))
	}
	if p.size()+optLen > limit {
		return b, ErrMessageTooLong // questions and OPT cannot be dropped
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
			if p.size()+optLen > limit {
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
		return b, err
	}
	ns, err := packSection(m.Authority)
	if err != nil {
		return b, err
	}
	ar, err := packSection(m.Additional)
	if err != nil {
		return b, err
	}
	dropped := len(m.Answers) - an + len(m.Authority) - ns
	if !full && !truncate {
		return b, ErrMessageTooLong
	}
	if m.EDNS != nil {
		if err := p.packOPT(m.EDNS, m.RCode); err != nil {
			return b, err
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
	h := p.buf[p.base:]
	put16(h[0:], m.ID)
	put16(h[2:], flags)
	put16(h[4:], uint16(len(m.Questions)))
	put16(h[6:], uint16(an))
	put16(h[8:], uint16(ns))
	put16(h[10:], uint16(ar))
	return p.buf, nil
}

// packName writes a name, ending it with a compression pointer to the
// longest suffix already written. Every suffix it writes at a message
// offset below 0x4000 (the 14-bit pointer ceiling) is registered as a
// future target; a suffix is registered only when no equal one was, so
// the first occurrence stays the target.
func (p *packer) packName(name string) error {
	var w [maxNameWire]byte
	var starts [maxNameWire / 2]uint8
	n, labels, err := parseName(name, &w, &starts)
	if err != nil {
		return err
	}
	// hashes[i] covers the wire bytes of the suffix starting at label
	// i; one pass from the right computes them all.
	var hashes [len(starts)]uint32
	h := uint32(fnvOffset)
	for i, pos := labels-1, n-1; i >= 0; i-- {
		for ; pos >= int(starts[i]); pos-- {
			h = (h ^ uint32(w[pos])) * fnvPrime
		}
		hashes[i] = h
	}
	msg := p.buf[p.base:]
	hit, ptr := labels, 0
	for i := 0; i < labels; i++ {
		if off, ok := p.cmp.lookup(hashes[i], msg, w[starts[i]:n]); ok {
			hit, ptr = i, off
			break
		}
	}
	at := p.size()
	for i := 0; i < hit && at+int(starts[i]) < 0x4000; i++ {
		p.cmp.register(hashes[i], at+int(starts[i]))
	}
	if hit == labels {
		p.buf = append(p.buf, w[:n]...)
		return nil
	}
	p.buf = append(p.buf, w[:starts[hit]]...)
	p.buf = append(p.buf, 0xC0|byte(ptr>>8), byte(ptr))
	return nil
}

// FNV-1a parameters for the suffix hash.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// compressor is the registry of name suffixes already written: for
// every suffix registered, its message offset, indexed by a hash of the
// suffix's uncompressed wire bytes in an open-addressing table with
// linear probing. A hash hit is confirmed by comparing the suffix with
// the message bytes at that offset, so a collision costs a compare,
// never a wrong pointer. Compression is byte-exact (no case folding),
// which keeps encoding deterministic.
//
// The first entries and their index are arrays inside the compressor,
// which lives on the packer's stack; only a message that registers
// more suffixes than they hold moves to a heap table, doubled as
// needed.
type compressor struct {
	n     int                    // entries registered
	ents  [inlineEnts]cmpEntry   // entries in the order written, while they fit
	slots [2 * inlineEnts]uint16 // their index while it fits
	big   *cmpTable              // both, once the arrays are outgrown
}

// inlineEnts is the registry size a packer starts with: a typical
// reply registers a handful of suffixes.
const inlineEnts = 32

// cmpTable holds a compressor's entries and index. The index has
// twice as many slots as there is room for entries, so it is never
// more than half full. A slot holds an entry's position plus one, or 0.
type cmpTable struct {
	ents  []cmpEntry
	slots []uint16
}

type cmpEntry struct {
	hash uint32
	off  uint16
}

func (c *compressor) table() cmpTable {
	if c.big != nil {
		return *c.big
	}
	return cmpTable{c.ents[:], c.slots[:]}
}

// lookup returns the offset of a registered suffix equal to suffix,
// the wire form of a name tail, in msg.
func (c *compressor) lookup(h uint32, msg, suffix []byte) (int, bool) {
	t := c.table()
	for i := t.slot(h); t.slots[i] != 0; i = t.next(i) {
		e := t.ents[t.slots[i]-1]
		if e.hash == h && nameEqual(msg, int(e.off), suffix) {
			return int(e.off), true
		}
	}
	return 0, false
}

// register records a suffix written at message offset off, moving to
// a table twice the size first if this one is full.
func (c *compressor) register(h uint32, off int) {
	t := c.table()
	if c.n == len(t.ents) {
		big := &cmpTable{make([]cmpEntry, 2*len(t.ents)), make([]uint16, 2*len(t.slots))}
		copy(big.ents, t.ents)
		for e := 0; e < c.n; e++ {
			big.place(e)
		}
		c.big, t = big, *big
	}
	t.ents[c.n] = cmpEntry{h, uint16(off)}
	t.place(c.n)
	c.n++
}

// truncate forgets every entry after the first n. Those are the newest
// entries, so clearing their slots restores the index the older ones
// built: each entry took the first free slot of its probe sequence,
// and a larger table is refilled in the order the entries were written.
func (c *compressor) truncate(n int) {
	t := c.table()
	for ; c.n > n; c.n-- {
		i := t.slot(t.ents[c.n-1].hash)
		for int(t.slots[i]) != c.n {
			i = t.next(i)
		}
		t.slots[i] = 0
	}
}

// slot is where the probe sequence of hash h starts; next steps it.
func (t cmpTable) slot(h uint32) int { return int((h ^ h>>16) & uint32(len(t.slots)-1)) }
func (t cmpTable) next(i int) int    { return (i + 1) & (len(t.slots) - 1) }

// place puts ents[e] in the first free slot of its probe sequence.
func (t cmpTable) place(e int) {
	i := t.slot(t.ents[e].hash)
	for t.slots[i] != 0 {
		i = t.next(i)
	}
	t.slots[i] = uint16(e + 1)
}

// nameEqual reports whether the name written at offset off of msg
// spells suffix, an uncompressed wire-form name tail. It follows the
// packer's own pointers, which always target an offset below their
// own, so the walk terminates.
func nameEqual(msg []byte, off int, suffix []byte) bool {
	for {
		c := msg[off]
		if c >= 0xC0 {
			off = int(c&0x3F)<<8 | int(msg[off+1])
			continue
		}
		n := 1 + int(c) // length byte and label, or the root's zero
		if len(suffix) < n || string(msg[off:off+n]) != string(suffix[:n]) {
			return false
		}
		if c == 0 {
			return true
		}
		off, suffix = off+n, suffix[n:]
	}
}

// packRR writes one resource record: owner name (compressible), fixed
// header, and typed RDATA with its length backpatched.
func (p *packer) packRR(rr RR) error {
	if rr.Data == nil {
		return ErrBadRData
	}
	if err := p.packName(rr.Name); err != nil {
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
		if err := p.packName(string(d)); err != nil {
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
	case RDataAppender:
		var err error
		if p.buf, err = d.AppendRData(p.buf); err != nil {
			return err
		}
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
func (p *packer) packOPT(e *EDNS, rcode RCode) error {
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

func put16(p []byte, v uint16) {
	p[0], p[1] = byte(v>>8), byte(v)
}

func append32(p []byte, v uint32) []byte {
	return append(p, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
