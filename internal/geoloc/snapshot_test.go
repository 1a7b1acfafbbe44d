package geoloc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
// truncations, a foreign file, version skew and flipped bytes. The
// trailer is checked before the metadata or the payload is parsed, so
// a flipped byte anywhere fails the checksum.
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
		{"flipped metadata byte", flip(17), ErrSnapshotChecksum},
		{"flipped payload byte", flip(payloadByte(t, good)), ErrSnapshotChecksum},
		{"flipped trailer byte", flip(len(good) - 1), ErrSnapshotChecksum},
		{"version 1 file", v1Snapshot(t, good), ErrSnapshotVersion},
	}
}

// v1Snapshot frames good's metadata and payload the way format version
// 1 did: a section count, then each section with its length and CRC,
// here one section holding the whole payload, then the trailer CRC.
func v1Snapshot(t testing.TB, good []byte) []byte {
	t.Helper()
	le := binary.LittleEndian
	off := payloadByte(t, good)
	payload := good[off : len(good)-4]
	meta := good[16 : off-4]
	b := append([]byte(nil), snapshotMagic[:]...)
	b = le.AppendUint32(b, 1)
	b = append(le.AppendUint32(b, uint32(len(meta))), meta...)
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, uint32(len(payload)))
	b = le.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = append(b, payload...)
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestSnapshotDeclaredLengthUntrusted: a short file whose metadata or
// payload length field declares 1 GiB must fail as truncated having
// allocated about what it holds, not what it declares.
func TestSnapshotDeclaredLengthUntrusted(t *testing.T) {
	le := binary.LittleEndian
	header := func() []byte { return le.AppendUint32(append([]byte(nil), snapshotMagic[:]...), SnapshotVersion) }
	for _, tc := range []struct {
		field string
		data  []byte
	}{
		{"metaLen", le.AppendUint32(header(), 1<<30)},
		{"payloadLen", le.AppendUint32(append(le.AppendUint32(header(), 2), "{}"...), 1<<30)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSnapshot(bytes.NewReader(tc.data), nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("%s: got %v, want ErrSnapshotTruncated", tc.field, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: reading a %d-byte snapshot allocated %d bytes", tc.field, len(tc.data), got)
		}
	}
}

// TestSnapshotPayloadIsConventions: the payload Save writes is byte for
// byte the published conventions file, what hoiho -write-nc writes.
func TestSnapshotPayloadIsConventions(t *testing.T) {
	res, _, _ := learnFixture(t)
	var snap, nc bytes.Buffer
	if err := Save(&snap, res, nil); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteConventions(&nc, res); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()
	off := payloadByte(t, good)
	if n := int(binary.LittleEndian.Uint32(good[off-4:])); n != nc.Len() || off+n+4 != len(good) {
		t.Fatalf("payload of %d bytes at offset %d in a %d-byte snapshot; conventions are %d bytes",
			n, off, len(good), nc.Len())
	}
	if payload := good[off : len(good)-4]; !bytes.Equal(payload, nc.Bytes()) {
		t.Fatalf("payload differs from core.WriteConventions:\n%s\nwant:\n%s", payload, nc.Bytes())
	}
}

// TestSnapshotMetadataCount: a snapshot whose checksum holds but whose
// metadata header promises a convention more than its payload holds is
// refused, naming the metadata.
func TestSnapshotMetadataCount(t *testing.T) {
	res, _, _ := learnFixture(t)
	var nc bytes.Buffer
	if err := core.WriteConventions(&nc, res); err != nil {
		t.Fatal(err)
	}
	meta := fmt.Sprintf(`{"conventions":%d}`, len(res.NCs)+1)
	le := binary.LittleEndian
	b := le.AppendUint32(append([]byte(nil), snapshotMagic[:]...), SnapshotVersion)
	b = append(le.AppendUint32(b, uint32(len(meta))), meta...)
	b = append(le.AppendUint32(b, uint32(nc.Len())), nc.Bytes()...)
	b = le.AppendUint32(b, crc32.ChecksumIEEE(b))
	if got, err := ReadSnapshot(bytes.NewReader(b), nil); err == nil || !strings.Contains(err.Error(), "metadata") {
		t.Fatalf("ReadSnapshot = %v, %v; want an error naming the metadata", got, err)
	}
}

// snapshotSentinels are the errors.Is targets of a failed read.
var snapshotSentinels = []error{ErrSnapshotEmpty, ErrSnapshotMagic, ErrSnapshotVersion,
	ErrSnapshotTruncated, ErrSnapshotChecksum}

// FuzzSnapshot: no input makes ReadSnapshot panic; every error matches a
// snapshot sentinel or names the conventions or metadata it failed on;
// and whatever it accepts reaches a fixpoint under Save, ReadSnapshot,
// Save.
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
			if msg := err.Error(); !strings.Contains(msg, "conventions") && !strings.Contains(msg, "metadata") {
				t.Fatalf("error matches no snapshot sentinel and names no conventions or metadata: %v", err)
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

// payloadByte locates the first byte of the payload, so the
// flipped-byte case corrupts conventions text rather than framing.
func payloadByte(t testing.TB, snap []byte) int {
	t.Helper()
	off := 8 + 4 // magic + version
	off += 4 + int(binary.LittleEndian.Uint32(snap[off:])) + 4
	if off >= len(snap)-4 {
		t.Fatal("snapshot has no payload to corrupt")
	}
	return off
}

func TestSnapshotNilResult(t *testing.T) {
	if err := Save(&bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("Save(nil) should error")
	}
}
