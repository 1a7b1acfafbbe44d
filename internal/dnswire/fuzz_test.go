package dnswire

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzDNSMessage is the decode→encode→decode fixpoint fuzzer: any
// frame Unpack accepts must Pack again, decode back to a DeepEqual
// message, and re-encode byte-identically. Together with the no-panic
// guarantee on rejected frames, this is the codec's whole contract.
// Every encode is also held to the old packer (oracle_test.go): Pack,
// and PackTruncated at several limits, must give its bytes and its
// error, and so must AppendTruncated behind a dirty prefix. The input
// read as a name must fail to pack with the old packer's error.
// The golden corpus seeds the fuzzer alongside the checked-in seeds
// under testdata/fuzz/FuzzDNSMessage.
func FuzzDNSMessage(f *testing.F) {
	frames, err := filepath.Glob(filepath.Join("testdata", "frames", "*.hex"))
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range frames {
		name := strings.TrimSuffix(filepath.Base(fr), ".hex")
		f.Add(loadFrame(f, name))
	}
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // header-only
	f.Fuzz(func(t *testing.T, data []byte) {
		name := query(1, string(data), TypeTXT)
		matchOracle(t, name, MaxMessageLen, false)
		m, err := Unpack(data)
		if err != nil {
			return // rejected input: not panicking is the whole assertion
		}
		matchOracle(t, m, MaxMessageLen, false)
		for _, limit := range []int{headerLen, 64, 128, 512, 1232, len(data) - 1, MaxMessageLen + 1} {
			matchOracle(t, m, limit, true)
		}
		p, err := m.Pack()
		if errors.Is(err, ErrMessageTooLong) {
			// Decompression can legitimately expand a near-64KiB frame
			// past the wire ceiling (a 2-byte pointer inflates to a full
			// name); the fixpoint claim applies to packable messages.
			return
		}
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v\n%#v", err, m)
		}
		m2, err := Unpack(p)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v\n%x", err, p)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode→encode→decode diverged:\n got %#v\nwant %#v", m2, m)
		}
		p2, err := m2.Pack()
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(p, p2) {
			t.Fatalf("encode is not a fixpoint:\n got %x\nwant %x", p2, p)
		}
	})
}

// dirty is a prefix of junk that AppendTruncated must pack behind
// without reading: its bytes and the spare capacity after them are
// garbage, as in a reply buffer a longer reply used before.
var dirty = func() []byte {
	b := bytes.Repeat([]byte{0xC0, 0x0C, 0x3F}, 30000)
	return b[:7]
}()

// matchOracle packs m as Pack (truncate unset) or PackTruncated(limit)
// and with the old packer, and fails unless both give the same bytes
// and the same error; AppendTruncated behind dirty must agree too.
func matchOracle(t *testing.T, m *Message, limit int, truncate bool) {
	t.Helper()
	want, wantErr := oraclePackMessage(m, limit, truncate)
	var got []byte
	var err error
	if truncate {
		got, err = m.PackTruncated(limit)
	} else {
		got, err = m.Pack()
	}
	if !errors.Is(err, wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("limit %d truncate %v: packed %x (%v), old packer %x (%v)", limit, truncate, got, err, want, wantErr)
	}
	if !truncate {
		return
	}
	app, err := m.AppendTruncated(dirty, limit)
	if !errors.Is(err, wantErr) || !bytes.Equal(app[:len(dirty)], dirty) {
		t.Fatalf("limit %d: AppendTruncated error %v, want %v, or prefix clobbered", limit, err, wantErr)
	}
	if err == nil && !bytes.Equal(app[len(dirty):], want) {
		t.Fatalf("limit %d: AppendTruncated packed %x, old packer %x", limit, app[len(dirty):], want)
	}
}
