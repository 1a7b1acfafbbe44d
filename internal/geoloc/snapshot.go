package geoloc

// Compiled-index snapshots: a versioned, checksummed on-disk format for
// the learned conventions behind an Index, so geoserve cold starts and
// reloads never pay the learning pipeline again (the paper's
// learn-once/serve-many shape; see DESIGN.md §10 for the wire layout).
//
// Layout, all integers little-endian:
//
//	magic      [8]byte  "HOIHOSNP"
//	version    uint32   SnapshotVersion
//	metaLen    uint32   length of the JSON metadata header
//	meta       []byte   {"conventions":N,...}
//	payloadLen uint32   length of the payload
//	payload    []byte   the published conventions text
//	trailer    uint32   IEEE CRC-32 of every preceding byte
//
// The payload is byte for byte what core.WriteConventions writes, the
// file hoiho -write-nc publishes, so a snapshot stays debuggable with
// `strings` and is read by the one conventions parser.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"hoiho/internal/core"
	"hoiho/internal/obs"
)

// SnapshotVersion is the format version this build writes and the only
// version it reads. Bump on any incompatible layout change; readers
// reject other versions with ErrSnapshotVersion rather than guessing.
// A version 1 file is refused: rebuild it with geosnap from its
// conventions file or corpus.
const SnapshotVersion = 2

var snapshotMagic = [8]byte{'H', 'O', 'I', 'H', 'O', 'S', 'N', 'P'}

// Snapshot read failures are distinguishable with errors.Is so callers
// (and the corruption tests) can tell an operational problem (truncated
// copy, bit rot) from a compatibility one (foreign file, version skew).
var (
	// ErrSnapshotEmpty reports a zero-length input.
	ErrSnapshotEmpty = errors.New("geoloc: snapshot: empty file")
	// ErrSnapshotMagic reports an input that is not a snapshot at all.
	ErrSnapshotMagic = errors.New("geoloc: snapshot: bad magic (not a snapshot file)")
	// ErrSnapshotVersion reports a snapshot from an incompatible format
	// version.
	ErrSnapshotVersion = errors.New("geoloc: snapshot: unsupported format version")
	// ErrSnapshotTruncated reports an input that ends mid-structure.
	ErrSnapshotTruncated = errors.New("geoloc: snapshot: truncated")
	// ErrSnapshotChecksum reports a trailer CRC mismatch.
	ErrSnapshotChecksum = errors.New("geoloc: snapshot: checksum mismatch")
)

// snapshotMeta is the JSON metadata header. The Result-level totals ride
// along because they are derived from the training corpus, which a
// snapshot consumer does not have.
type snapshotMeta struct {
	Conventions         int `json:"conventions"`
	SuffixesWithGeohint int `json:"suffixes_with_geohint,omitempty"`
	RoutersWithGeohint  int `json:"routers_with_geohint,omitempty"`
	RoutersGeolocated   int `json:"routers_geolocated,omitempty"`
}

// Save writes res as a compiled-index snapshot. The output is
// deterministic for a given Result (no timestamps; the payload is
// sorted by suffix), so identical conventions produce byte-identical
// snapshots. tracer may be nil; when set, a "snapshot-save" span
// records convention and byte counts.
func Save(w io.Writer, res *core.Result, tracer *obs.Tracer) error {
	if res == nil {
		return fmt.Errorf("geoloc: snapshot: nil result")
	}
	sp := tracer.Start("snapshot-save")
	defer sp.End()

	meta, err := json.Marshal(snapshotMeta{
		Conventions:         len(res.NCs),
		SuffixesWithGeohint: res.SuffixesWithGeohint,
		RoutersWithGeohint:  res.RoutersWithGeohint,
		RoutersGeolocated:   res.RoutersGeolocated,
	})
	if err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := core.WriteConventions(&payload, res); err != nil {
		return err
	}
	le := binary.LittleEndian
	out := append([]byte(nil), snapshotMagic[:]...)
	out = le.AppendUint32(out, SnapshotVersion)
	out = append(le.AppendUint32(out, uint32(len(meta))), meta...)
	out = append(le.AppendUint32(out, uint32(payload.Len())), payload.Bytes()...)
	out = le.AppendUint32(out, crc32.ChecksumIEEE(out))

	sp.Count("conventions", int64(len(res.NCs)))
	sp.Count("bytes", int64(len(out)))
	_, err = w.Write(out)
	return err
}

// ReadSnapshot parses a snapshot back into a Result. It verifies the
// framing and the trailer CRC before it parses anything, then parses
// the payload once with core.ReadConventions and checks the metadata
// header's convention count against it. The declared lengths are
// untrusted until the checksum passes: a length is read as its bytes
// arrive, so a short input fails having allocated about what it holds.
// tracer may be nil; when set, a "snapshot-load" span records
// convention and byte counts.
func ReadSnapshot(r io.Reader, tracer *obs.Tracer) (*core.Result, error) {
	sp := tracer.Start("snapshot-load")
	defer sp.End()

	cr := &crcReader{r: r}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		if errors.Is(err, io.EOF) && cr.n == 0 {
			return nil, ErrSnapshotEmpty
		}
		return nil, ErrSnapshotTruncated
	}
	if magic != snapshotMagic {
		return nil, ErrSnapshotMagic
	}
	version, err := readU32(cr)
	if err != nil {
		return nil, ErrSnapshotTruncated
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("%w: file has v%d, this build reads v%d",
			ErrSnapshotVersion, version, SnapshotVersion)
	}
	metaBytes, err := readField(cr)
	if err != nil {
		return nil, ErrSnapshotTruncated
	}
	payload, err := readField(cr)
	if err != nil {
		return nil, ErrSnapshotTruncated
	}
	bodyCRC := cr.crc
	trailer, err := readU32(r)
	if err != nil {
		return nil, ErrSnapshotTruncated
	}
	if trailer != bodyCRC {
		return nil, fmt.Errorf("%w: trailer", ErrSnapshotChecksum)
	}

	var meta snapshotMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, fmt.Errorf("geoloc: snapshot: bad metadata header: %w", err)
	}
	res, err := core.ReadConventions(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("geoloc: snapshot: conventions: %w", err)
	}
	if len(res.NCs) != meta.Conventions {
		return nil, fmt.Errorf("geoloc: snapshot: metadata header promises %d conventions, the payload holds %d",
			meta.Conventions, len(res.NCs))
	}
	res.SuffixesWithGeohint = meta.SuffixesWithGeohint
	res.RoutersWithGeohint = meta.RoutersWithGeohint
	res.RoutersGeolocated = meta.RoutersGeolocated
	sp.Count("conventions", int64(len(res.NCs)))
	sp.Count("bytes", cr.n+4)
	return res, nil
}

// Load reads a snapshot and compiles it into a serving Index — the
// zero-learning cold-start path. Options are applied exactly as in New
// (opts.Tracer also spans the snapshot parse itself).
func Load(r io.Reader, opts Options) (*Index, error) {
	res, err := ReadSnapshot(r, opts.Tracer)
	if err != nil {
		return nil, err
	}
	return New(res, opts)
}

// crcReader tracks the running CRC-32 and byte count of everything read
// through it, so the trailer can be verified without buffering the file.
type crcReader struct {
	r   io.Reader
	crc uint32
	n   int64
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// readField reads a length-prefixed field into a buffer that grows as
// its bytes arrive, so a length promising more than r holds costs about
// what r holds, not what the length declares.
func readField(r io.Reader) ([]byte, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}
