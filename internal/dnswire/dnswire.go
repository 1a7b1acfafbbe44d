// Package dnswire is a self-contained DNS message codec — the wire
// layer under the geodns daemon. It packs and unpacks complete DNS
// messages (RFC 1035): header, questions, and the resource-record
// types the serving layer answers with (A, PTR, TXT, LOC) plus EDNS0
// (RFC 6891) payload-size negotiation. Unknown record types round-trip
// as opaque RDATA.
//
// The codec is built for hostile input. Decoding never panics on any
// byte string: every length is bounds-checked, compression pointers
// must jump strictly backwards with a hard hop budget (so a crafted
// pointer cycle terminates immediately), names are capped at their
// RFC wire limit, and trailing bytes after the last record are an
// error rather than silently ignored. Encoding is deterministic: the
// same Message always packs to the same bytes, with RFC 1035 name
// compression applied to owner names and PTR targets. PackTruncated
// implements the TC-bit policy a UDP responder needs: drop whole
// records from the tail until the message fits, keeping the OPT
// record, and set TC only when an answer or authority record was
// dropped.
//
// These properties are pinned by a golden corpus of hand-assembled
// frames (testdata/frames), a decode→encode→decode fixpoint fuzzer
// (FuzzDNSMessage), and table-driven verdict tests mapping each
// corrupted frame to its exact typed error.
package dnswire

import (
	"errors"
	"fmt"
)

// Type is a DNS resource-record or query type.
type Type uint16

// The record types the codec understands natively. Anything else
// decodes as Raw RDATA and re-encodes byte-for-byte.
const (
	TypeA   Type = 1
	TypePTR Type = 12
	TypeTXT Type = 16
	TypeLOC Type = 29
	TypeOPT Type = 41
	TypeANY Type = 255
)

// String names the type the way dig prints it.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypePTR:
		return "PTR"
	case TypeTXT:
		return "TXT"
	case TypeLOC:
		return "LOC"
	case TypeOPT:
		return "OPT"
	case TypeANY:
		return "ANY"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class. Geodns serves the Internet class only.
type Class uint16

const (
	ClassINET Class = 1
	ClassANY  Class = 255
)

// Opcode is the 4-bit operation field of the header. Geodns implements
// only OpcodeQuery; the codec preserves the rest for round-trips.
type Opcode uint8

const (
	OpcodeQuery  Opcode = 0
	OpcodeIQuery Opcode = 1
	OpcodeStatus Opcode = 2
	OpcodeNotify Opcode = 4
	OpcodeUpdate Opcode = 5
)

// RCode is the response code. Values above 15 (extended rcodes such as
// BADVERS) need an EDNS OPT record to carry their upper bits; Pack
// enforces that.
type RCode uint16

const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
	RCodeBadVers  RCode = 16
)

// String names the rcode the way dig prints it.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	case RCodeBadVers:
		return "BADVERS"
	}
	return fmt.Sprintf("RCODE%d", uint16(r))
}

// Decode and encode errors. Decoding distinguishes how a frame is bad
// so the golden-corpus verdict tests can pin each corruption class;
// all are matched with errors.Is.
var (
	// ErrShortMessage: the frame ends before a length it promised.
	ErrShortMessage = errors.New("dnswire: message truncated")
	// ErrBadLabel: a label length byte uses the reserved 0x40–0xBF range.
	ErrBadLabel = errors.New("dnswire: reserved label type")
	// ErrNameTooLong: a name exceeds 255 wire bytes (RFC 1035 §2.3.4),
	// counting every label walked through compression pointers.
	ErrNameTooLong = errors.New("dnswire: name exceeds 255 wire bytes")
	// ErrLabelTooLong: a presentation-format label exceeds 63 bytes.
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 bytes")
	// ErrPointerLoop: a compression pointer does not jump strictly
	// backwards, or the walk exceeds the hop budget. Both conditions
	// guarantee termination on crafted cycles.
	ErrPointerLoop = errors.New("dnswire: compression pointer loop")
	// ErrBadRData: a record's RDATA does not fit its type (wrong fixed
	// length, character-string or option overrunning RDLENGTH, a PTR
	// target not consuming the whole RDATA).
	ErrBadRData = errors.New("dnswire: rdata does not match its type")
	// ErrBadOPT: an OPT record outside the additional section, more
	// than one OPT, or an OPT with a non-root owner name.
	ErrBadOPT = errors.New("dnswire: malformed OPT record")
	// ErrTrailingGarbage: bytes remain after the last counted record.
	ErrTrailingGarbage = errors.New("dnswire: trailing bytes after message")
	// ErrBadName: a presentation-format name fails to parse on encode
	// (bad escape, empty label, empty name).
	ErrBadName = errors.New("dnswire: malformed name")
	// ErrMessageTooLong: the packed message exceeds 65535 bytes, or a
	// fixed section (header, questions, OPT) exceeds a PackTruncated
	// limit that only records may be dropped to meet.
	ErrMessageTooLong = errors.New("dnswire: message exceeds size limit")
	// ErrBadRCode: an extended rcode (>15) packed without an EDNS OPT
	// record to carry its upper bits, or an rcode above 12 bits.
	ErrBadRCode = errors.New("dnswire: extended rcode requires EDNS")
)

// headerLen is the fixed DNS header size.
const headerLen = 12

// MaxMessageLen is the largest message either transport can carry
// (the TCP two-byte length prefix bounds it).
const MaxMessageLen = 65535

// Question is one entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RR is one resource record. The concrete RDATA type in Data carries
// the record type; OPT pseudo-records never appear here — decoding
// lifts them into Message.EDNS, and encoding emits Message.EDNS as the
// final additional record.
type RR struct {
	Name  string
	Class Class
	TTL   uint32
	Data  RData
}

// Type reports the record type carried by the RDATA.
func (rr *RR) Type() Type { return rr.Data.Type() }

// RData is the typed payload of a resource record.
type RData interface {
	// Type identifies the wire type this payload encodes as.
	Type() Type
}

// A is an IPv4 address record payload.
type A [4]byte

// Type implements RData.
func (A) Type() Type { return TypeA }

// PTR is a domain-name pointer payload (the target name, presentation
// format). Targets are compressed on encode and decompressed on
// decode, per RFC 1035's well-known-type rule.
type PTR string

// Type implements RData.
func (PTR) Type() Type { return TypePTR }

// TXT is a text record payload: one or more character-strings, each at
// most 255 bytes.
type TXT []string

// Type implements RData.
func (TXT) Type() Type { return TypeTXT }

// RDataAppender is an RData that packs its own RDATA: the packer calls
// AppendRData to append the record's RDATA bytes to b, then fills in
// their length. It lets a payload be rendered straight into the
// message instead of first being built as one of this package's types.
// An error fails the pack. Decoding knows nothing of it: the record
// decodes as the package's own type for Type() (a self-packing TXT
// payload decodes as TXT).
type RDataAppender interface {
	RData
	AppendRData(b []byte) ([]byte, error)
}

// LOC is an RFC 1876 location record payload. Fields are kept in wire
// units so arbitrary records round-trip exactly; NewLOC and LatLong
// convert to and from decimal degrees.
type LOC struct {
	Version  uint8 // must be 0 on records this package creates
	Size     uint8 // sphere diameter, exponent-mantissa cm encoding
	HorizPre uint8 // horizontal precision, same encoding
	VertPre  uint8 // vertical precision, same encoding
	// Latitude and Longitude are thousandths of an arcsecond offset
	// from 2^31 (the equator / prime meridian); Altitude is centimeters
	// above a base 100km below the WGS-84 ellipsoid.
	Latitude  uint32
	Longitude uint32
	Altitude  uint32
}

// Type implements RData.
func (LOC) Type() Type { return TypeLOC }

// locDegree is LOC wire units (milliarcseconds) per degree.
const locDegree = 3_600_000

// locAltitudeBase is the wire value of zero altitude (sea level).
const locAltitudeBase = 10_000_000

// NewLOC builds a LOC payload at the given coordinates with the RFC
// 1876 default precision fields (size 1m, horizontal 10km, vertical
// 10m) and sea-level altitude — the shape geodns serves for a located
// hostname, where the dictionary pins a city, not a street address.
func NewLOC(lat, long float64) LOC {
	return LOC{
		Size:      0x12, // 1e2 cm = 1m
		HorizPre:  0x16, // 1e6 cm = 10km
		VertPre:   0x13, // 1e3 cm = 10m
		Latitude:  uint32(int64(lat*locDegree) + 1<<31),
		Longitude: uint32(int64(long*locDegree) + 1<<31),
		Altitude:  locAltitudeBase,
	}
}

// LatLong converts the wire coordinates back to decimal degrees.
func (l LOC) LatLong() (lat, long float64) {
	lat = float64(int64(l.Latitude)-1<<31) / locDegree
	long = float64(int64(l.Longitude)-1<<31) / locDegree
	return lat, long
}

// Raw is the payload of a record type the codec has no model for. The
// bytes are preserved exactly; embedded compression pointers (which
// only well-known types may carry) are not interpreted.
type Raw struct {
	RRType Type
	Data   []byte
}

// Type implements RData.
func (r Raw) Type() Type { return r.RRType }

// optData is the decoded body of an OPT record in transit between
// unpackRR and the EDNS extraction in Unpack. It is unexported: user
// messages express EDNS through Message.EDNS, never as a section RR.
type optData struct {
	opts []Option
}

func (optData) Type() Type { return TypeOPT }

// EDNS is the RFC 6891 OPT pseudo-record, lifted out of the additional
// section: UDP payload negotiation, the DO bit, and any options the
// peer sent (unknown options are preserved verbatim so foreign OPT
// data round-trips). The extended-rcode bits live in Message.RCode.
type EDNS struct {
	// UDPSize is the sender's advertised maximum UDP payload.
	UDPSize uint16
	// Version is the EDNS version; only 0 is defined.
	Version uint8
	// DO is the DNSSEC-OK flag.
	DO bool
	// Z preserves the 15 reserved flag bits for round-trips.
	Z uint16
	// Options are the EDNS options, in wire order.
	Options []Option
}

// Option is one EDNS option TLV.
type Option struct {
	Code uint16
	Data []byte
}

// Message is a decoded DNS message. Every header bit is modeled (the
// reserved Z bit included) so any frame that decodes re-encodes
// without information loss.
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	Zero               bool // reserved header bit, preserved
	AuthenticData      bool
	CheckingDisabled   bool
	// RCode is the full response code: the header's 4 bits combined
	// with the EDNS extended bits when an OPT record is present.
	RCode RCode

	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR // OPT excluded; see EDNS
	EDNS       *EDNS
}

// Reply starts a response to q: same ID and opcode, QR set, the
// recursion-desired bit echoed, and the question section copied.
func Reply(q *Message) *Message {
	r := &Message{
		ID:               q.ID,
		Response:         true,
		Opcode:           q.Opcode,
		RecursionDesired: q.RecursionDesired,
	}
	r.Questions = append(r.Questions, q.Questions...)
	return r
}
