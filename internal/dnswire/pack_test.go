package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// manyRecords is a 2,000-record answer section of distinct owner names
// under shared suffixes, with PTR targets that compress against them:
// it fills the compression registry far past its inline arrays, runs
// past the 0x4000 offset beyond which suffixes are not registered, and
// makes every truncation limit roll a record back.
func manyRecords() *Message {
	m := &Message{
		ID:        7,
		Response:  true,
		Questions: []Question{{Name: "q.example.net.", Type: TypeANY, Class: ClassINET}},
	}
	for i := 0; i < 2000; i++ {
		rr := RR{Name: fmt.Sprintf("r%d.s%d.op%d.example.net.", i, i%97, i%7), Class: ClassINET, TTL: 60}
		switch i % 4 {
		case 0:
			rr.Data = A{10, 0, byte(i >> 8), byte(i)}
		case 1:
			rr.Data = PTR(fmt.Sprintf("t%d.s%d.op%d.example.net.", i%13, i%97, i%5))
		case 2:
			rr.Data = TXT{fmt.Sprint("n=", i)}
		default:
			rr.Data = NewLOC(float64(i%90), float64(i%180))
		}
		m.Answers = append(m.Answers, rr)
	}
	return m
}

// TestPackManyRecordsMatchesOracle packs the 2,000-record message whole
// and truncated at limits across its length, and holds each result to
// the old packer's bytes.
func TestPackManyRecordsMatchesOracle(t *testing.T) {
	m := manyRecords()
	full, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 0x4000+4096 {
		t.Fatalf("message is %d bytes; it must run well past 0x4000", len(full))
	}
	matchOracle(t, m, MaxMessageLen, false)
	limits := []int{0x3FFF, 0x4000, 0x4001, len(full) - 1, len(full)}
	step := 1009
	if testing.Short() {
		step = 4001
	}
	for limit := headerLen; limit < len(full); limit += step {
		limits = append(limits, limit)
	}
	for _, limit := range limits {
		matchOracle(t, m, limit, true)
	}
}

// TestRollbackRestoresRegistry packs a record's worth of names that
// outgrow the registry's inline arrays, rolls them back, and packs
// them again: the second pass must write the same bytes as the first,
// so no entry of a rolled-back name survives, and no entry written
// before the mark is lost.
func TestRollbackRestoresRegistry(t *testing.T) {
	p := packer{buf: make([]byte, headerLen)}
	for _, name := range []string{"ash1.he.net.", "lhr1.he.net.", "core.example."} {
		if err := p.packName(name); err != nil {
			t.Fatal(err)
		}
	}
	mk := p.mark()
	pack := func() []byte {
		for i := 0; i < 3*inlineEnts; i++ {
			if err := p.packName(fmt.Sprintf("x%d.lhr1.he.net.", i%(2*inlineEnts))); err != nil {
				t.Fatal(err)
			}
		}
		return bytes.Clone(p.buf[mk.buf:])
	}
	first := pack()
	if p.cmp.big == nil {
		t.Fatal("registry never outgrew its inline arrays")
	}
	p.rollback(mk)
	if p.cmp.n != mk.ents {
		t.Fatalf("rollback left %d entries, want %d", p.cmp.n, mk.ents)
	}
	if second := pack(); !bytes.Equal(first, second) {
		t.Errorf("names packed after a rollback differ:\n first %x\nsecond %x", first, second)
	}
}

// TestPackNameErrorsMatchOracle holds the name parser's verdicts to the
// old label splitter's, order of errors included: a name past the wire
// limit that also has a syntax error reports the syntax error.
func TestPackNameErrorsMatchOracle(t *testing.T) {
	long := bytes.Repeat([]byte("abcdefgh."), 32)
	for _, name := range []string{
		"", ".", "a", "a.", "a..b", `\`, `a\0`, `a\00`, `a\000`, `\256`, `\.\\.`,
		string(bytes.Repeat([]byte("x"), 64)),
		string(bytes.Repeat([]byte("x."), 127)),
		string(bytes.Repeat([]byte("x."), 128)),
		string(long),
		string(long) + "..",
		string(long) + `bad\25`,
		string(long) + string(bytes.Repeat([]byte("y"), 64)),
		string(bytes.Repeat([]byte(`\255`), 63)) + ".z.",
	} {
		_, want := oraclePackMessage(query(1, name, TypeTXT), MaxMessageLen, false)
		_, got := query(1, name, TypeTXT).Pack()
		if !errors.Is(got, want) || (want == nil) != (got == nil) {
			t.Errorf("Pack(%.40q) error = %v, old packer %v", name, got, want)
		}
	}
}

// TestUnpackAllocs pins the unpack of a one-question query at three
// allocations: the message, its question list and the name, which
// unpackName decodes on the stack.
func TestUnpackAllocs(t *testing.T) {
	q := mustPack(t, query(0x4242, "xe-1.core9.ash1.he.net.", TypeTXT))
	var err error
	if a := testing.AllocsPerRun(100, func() { _, err = Unpack(q) }); a > 3 || err != nil {
		t.Errorf("Unpack: %v allocations (err %v), want at most 3", a, err)
	}
}

// BenchmarkPackManyRecords packs the 2,000-record message with this
// packer and with the old one, which a change to compression must not
// fall behind.
func BenchmarkPackManyRecords(b *testing.B) {
	m := manyRecords()
	b.Run("packer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Pack(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oraclePackMessage(m, MaxMessageLen, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// selfTXT packs the character-strings of a TXT payload itself, through
// RDataAppender. With err set it writes a few bytes and then fails.
type selfTXT struct {
	ss  []string
	err error
}

func (selfTXT) Type() Type { return TypeTXT }

func (t selfTXT) AppendRData(b []byte) ([]byte, error) {
	if t.err != nil {
		return append(b, "partial"...), t.err
	}
	for _, s := range t.ss {
		b = append(append(b, byte(len(s))), s...)
	}
	return b, nil
}

// TestRDataAppender packs a message whose answers pack themselves and
// the same message with TXT answers, whole and truncated at every
// limit: the bytes must be equal, also where a self-packing record is
// dropped whole. The reply must decode to the TXT answers. An error
// from AppendRData must fail the pack and return b unchanged.
func TestRDataAppender(t *testing.T) {
	txts := []TXT{{"city=ashburn", "lat=39.0437"}, {"a"}, {""}, {strings.Repeat("x", 255), "y"}}
	msg := func(data func(TXT) RData) *Message {
		m := &Message{ID: 9, Response: true,
			Questions: []Question{{Name: "ash1.he.net.", Type: TypeTXT, Class: ClassINET}},
			EDNS:      &EDNS{UDPSize: 1232}}
		for i, txt := range txts {
			m.Answers = append(m.Answers, RR{Name: fmt.Sprintf("r%d.ash1.he.net.", i), Class: ClassINET, TTL: 300, Data: data(txt)})
		}
		return m
	}
	self := msg(func(txt TXT) RData { return selfTXT{ss: txt} })
	plain := msg(func(txt TXT) RData { return txt })
	full, err := plain.Pack()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xAA, 0xBB}
	for limit := headerLen; limit <= len(full); limit++ {
		want, werr := plain.AppendTruncated(append([]byte(nil), prefix...), limit)
		got, gerr := self.AppendTruncated(append([]byte(nil), prefix...), limit)
		if !bytes.Equal(got, want) || (gerr == nil) != (werr == nil) {
			t.Fatalf("limit %d: self-packed %x (%v), TXT %x (%v)", limit, got, gerr, want, werr)
		}
	}
	back, err := Unpack(full)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range back.Answers {
		if txt, ok := rr.Data.(TXT); !ok || !slices.Equal(txt, txts[i]) {
			t.Errorf("answer %d decodes as %#v, want %#v", i, rr.Data, txts[i])
		}
	}

	boom := errors.New("boom")
	self.Answers[1].Data = selfTXT{err: boom}
	b := append(make([]byte, 0, 1024), prefix...)
	out, err := self.AppendTruncated(b, MaxMessageLen)
	if !errors.Is(err, boom) || !bytes.Equal(out, prefix) || cap(out) != cap(b) {
		t.Errorf("failing appender: %x (cap %d), %v; want %x (cap %d), %v", out, cap(out), err, prefix, cap(b), boom)
	}
}
