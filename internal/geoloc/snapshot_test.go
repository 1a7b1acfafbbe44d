package geoloc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/obs"
)

// lookupKey flattens a lookup outcome into a comparable string so two
// indexes can be checked for byte-identical serving behaviour.
func lookupKey(ix *Index, host string) string {
	g, ok := ix.Lookup(host)
	if !ok {
		return "miss"
	}
	return g.Suffix + "|" + g.Hint + "|" + g.Type.String() + "|" + g.Loc.String() +
		"|" + map[bool]string{true: "learned", false: "dict"}[g.Learned]
}

func TestSnapshotDeterministic(t *testing.T) {
	res, _, _ := learnFixture(t)
	var a, b bytes.Buffer
	if err := Save(&a, res, nil); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b, res, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two Saves of the same Result differ: snapshot output is not deterministic")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	res, dict, list := learnFixture(t)
	tracer := obs.New(obs.Options{})
	var buf bytes.Buffer
	if err := Save(&buf, res, tracer); err != nil {
		t.Fatal(err)
	}

	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), tracer)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NCs) != len(res.NCs) {
		t.Fatalf("round trip lost conventions: got %d, want %d", len(got.NCs), len(res.NCs))
	}
	if got.SuffixesWithGeohint != res.SuffixesWithGeohint ||
		got.RoutersWithGeohint != res.RoutersWithGeohint ||
		got.RoutersGeolocated != res.RoutersGeolocated {
		t.Fatalf("round trip lost Result totals: got %d/%d/%d, want %d/%d/%d",
			got.SuffixesWithGeohint, got.RoutersWithGeohint, got.RoutersGeolocated,
			res.SuffixesWithGeohint, res.RoutersWithGeohint, res.RoutersGeolocated)
	}

	// The snapshot-built index must serve every probe identically to the
	// index compiled straight from the pipeline's Result.
	direct, err := New(res, Options{Dict: dict, PSL: list, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := Load(bytes.NewReader(buf.Bytes()), Options{Dict: dict, PSL: list, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range probeHosts {
		if d, s := lookupKey(direct, host), lookupKey(fromSnap, host); d != s {
			t.Errorf("lookup %q diverged: direct %s, snapshot %s", host, d, s)
		}
	}

	sum := tracer.Summary()
	var names []string
	for _, row := range sum.Stages {
		names = append(names, row.Name)
	}
	for _, want := range []string{"snapshot-save", "snapshot-load"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("tracer recorded no %q span (stages: %v)", want, names)
		}
	}
}

// TestSnapshotGoldenRoundTrip drives the full committed corpus through
// learn -> Save -> Load and checks lookup equivalence over every golden
// hostname — the end-to-end guarantee the geosnap/geoserve pair relies on.
func TestSnapshotGoldenRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline run in -short mode")
	}
	in, err := LoadInputs(filepath.Join("..", "..", "testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(in, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	direct, err := New(res, Options{Dict: in.Dict, PSL: in.PSL, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := Load(bytes.NewReader(buf.Bytes()), Options{Dict: in.Dict, PSL: in.PSL, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	hosts := 0
	for _, r := range in.Corpus.Routers {
		for _, host := range r.Hostnames() {
			hosts++
			if d, s := lookupKey(direct, host), lookupKey(fromSnap, host); d != s {
				t.Errorf("lookup %q diverged: direct %s, snapshot %s", host, d, s)
			}
		}
	}
	if hosts == 0 {
		t.Fatal("golden corpus has no hostnames")
	}
}

func TestSnapshotCorruption(t *testing.T) {
	res, _, _ := learnFixture(t)
	var buf bytes.Buffer
	if err := Save(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range corruptSnapshots(t, buf.Bytes()) {
		t.Run(tc.name, func(t *testing.T) {
			// Any panic here fails the test; corruption must always
			// surface as the matching typed error.
			res, err := ReadSnapshot(bytes.NewReader(tc.data), nil)
			if err == nil {
				t.Fatalf("corrupted snapshot decoded to %d conventions", len(res.NCs))
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// corruptSnapshot is one damaged snapshot and the sentinel its read
// must match.
type corruptSnapshot struct {
	name string
	data []byte
	want error
}

// corruptSnapshots derives the corruption table from a good snapshot:
// truncations, a foreign file, version skew and flipped bytes.
func corruptSnapshots(t testing.TB, good []byte) []corruptSnapshot {
	t.Helper()
	flip := func(at int) []byte {
		c := append([]byte(nil), good...)
		c[at] ^= 0x40
		return c
	}
	versioned := append([]byte(nil), good...)
	versioned[8] = 99 // version field, little-endian low byte
	return []corruptSnapshot{
		{"empty file", nil, ErrSnapshotEmpty},
		{"cut mid-magic", good[:5], ErrSnapshotTruncated},
		{"cut after magic", good[:8], ErrSnapshotTruncated},
		{"cut mid-body", good[:len(good)/2], ErrSnapshotTruncated},
		{"missing trailer", good[:len(good)-4], ErrSnapshotTruncated},
		{"short trailer", good[:len(good)-2], ErrSnapshotTruncated},
		{"foreign file", []byte("#conventions v1: not a snapshot\n"), ErrSnapshotMagic},
		{"wrong version", versioned, ErrSnapshotVersion},
		{"flipped payload byte", flip(payloadByte(t, good)), ErrSnapshotChecksum},
		{"flipped trailer byte", flip(len(good) - 1), ErrSnapshotChecksum},
		{"section count over the cap", framedSnapshot(`{}`, maxSnapshotSections+1, nil), ErrSnapshotSections},
		{"section count far over the cap", framedSnapshot(`{}`, 1<<20, nil), ErrSnapshotSections},
	}
}

// framedSnapshot frames a snapshot by hand: the magic, this build's
// version, the metadata header, a declared section count, the given
// sections (each with its length and CRC), and the trailer CRC. The
// declared count need not match the sections given.
func framedSnapshot(meta string, count uint32, sections [][]byte) []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), snapshotMagic[:]...)
	b = le.AppendUint32(b, SnapshotVersion)
	b = le.AppendUint32(b, uint32(len(meta)))
	b = append(b, meta...)
	b = le.AppendUint32(b, count)
	for _, p := range sections {
		b = le.AppendUint32(b, uint32(len(p)))
		b = le.AppendUint32(b, crc32.ChecksumIEEE(p))
		b = append(b, p...)
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestSnapshotDeclaredLengthUntrusted: a 16-byte file whose metadata
// length field declares 1 GiB must fail as truncated having allocated
// about what it holds, not what it declares.
func TestSnapshotDeclaredLengthUntrusted(t *testing.T) {
	data := append([]byte(nil), snapshotMagic[:]...)
	data = binary.LittleEndian.AppendUint32(data, SnapshotVersion)
	data = binary.LittleEndian.AppendUint32(data, 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSnapshot(bytes.NewReader(data), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("got %v, want ErrSnapshotTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a %d-byte snapshot allocated %d bytes", len(data), got)
	}
}

// TestSnapshotSectionCap: a file with as many sections as the cap
// allows still parses; TestSnapshotCorruption refuses one more.
func TestSnapshotSectionCap(t *testing.T) {
	sections := make([][]byte, maxSnapshotSections)
	res, err := ReadSnapshot(bytes.NewReader(framedSnapshot(`{"conventions":0}`, maxSnapshotSections, sections)), nil)
	if err != nil {
		t.Fatalf("%d empty sections: %v", maxSnapshotSections, err)
	}
	if len(res.NCs) != 0 {
		t.Fatalf("empty sections decoded to %d conventions", len(res.NCs))
	}
}

// snapshotSentinels are the errors.Is targets of a failed read.
var snapshotSentinels = []error{ErrSnapshotEmpty, ErrSnapshotMagic, ErrSnapshotVersion,
	ErrSnapshotTruncated, ErrSnapshotChecksum, ErrSnapshotSections}

// FuzzSnapshot: no input makes ReadSnapshot panic; every error matches a
// snapshot sentinel or names the section or metadata it failed on; and
// whatever it accepts reaches a fixpoint under Save, ReadSnapshot, Save.
func FuzzSnapshot(f *testing.F) {
	golden, err := LoadConventions(filepath.Join("..", "..", "testdata", "golden", "conventions.txt"))
	if err != nil {
		f.Fatal(err)
	}
	fixture, _, _ := learnFixture(f)
	for _, res := range []*core.Result{golden, fixture} {
		var buf bytes.Buffer
		if err := Save(&buf, res, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if res == fixture {
			for _, tc := range corruptSnapshots(f, buf.Bytes()) {
				f.Add(tc.data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadSnapshot(bytes.NewReader(data), nil)
		if err != nil {
			for _, s := range snapshotSentinels {
				if errors.Is(err, s) {
					return
				}
			}
			if msg := err.Error(); !strings.Contains(msg, "section") && !strings.Contains(msg, "metadata") {
				t.Fatalf("error matches no snapshot sentinel and names no section or metadata: %v", err)
			}
			return
		}
		var once, twice bytes.Buffer
		if err := Save(&once, res, nil); err != nil {
			t.Fatalf("accepted snapshot failed to save: %v", err)
		}
		again, err := ReadSnapshot(bytes.NewReader(once.Bytes()), nil)
		if err != nil {
			t.Fatalf("saved snapshot failed to read back: %v", err)
		}
		if err := Save(&twice, again, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("Save, ReadSnapshot, Save is not a fixpoint: %d then %d bytes", once.Len(), twice.Len())
		}
	})
}

// payloadByte locates the first byte inside a non-empty section payload,
// so the flipped-byte case corrupts conventions text rather than framing.
func payloadByte(t testing.TB, snap []byte) int {
	t.Helper()
	le := binary.LittleEndian
	off := 8 + 4 // magic + version
	metaLen := int(le.Uint32(snap[off:]))
	off += 4 + metaLen
	sections := int(le.Uint32(snap[off:]))
	off += 4
	for i := 0; i < sections; i++ {
		payloadLen := int(le.Uint32(snap[off:]))
		off += 8 // length + CRC
		if payloadLen > 0 {
			return off
		}
	}
	t.Fatal("snapshot has no non-empty section to corrupt")
	return 0
}

func TestSnapshotNilResult(t *testing.T) {
	if err := Save(&bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("Save(nil) should error")
	}
}
