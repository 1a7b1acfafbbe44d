package geoloc

// Compiled-index snapshots: a versioned, checksummed on-disk format for
// the learned conventions behind an Index, so geoserve cold starts and
// reloads never pay the learning pipeline again (the paper's
// learn-once/serve-many shape; see DESIGN.md §10 for the wire layout).
//
// Layout, all integers little-endian:
//
//	magic   [8]byte  "HOIHOSNP"
//	version uint32   SnapshotVersion
//	metaLen uint32   length of the JSON metadata header
//	meta    []byte   {"conventions":N,"shards":K,...}
//	shards  uint32   section count K
//	K sections:
//	    payloadLen uint32
//	    payloadCRC uint32   IEEE CRC-32 of the payload bytes
//	    payload    []byte   published-conventions text for the shard
//	trailer uint32   IEEE CRC-32 of every preceding byte
//
// Conventions are sharded by FNV-1a suffix hash so ReadSnapshot can
// parse sections concurrently; within a shard the payload is the same
// line format core.WriteConventions publishes, which keeps the snapshot
// debuggable with `strings` and reuses the battle-tested parser. The
// per-section CRC localizes corruption to a shard; the trailer CRC
// additionally covers the header and framing.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"hoiho/internal/core"
	"hoiho/internal/obs"
)

// SnapshotVersion is the format version this build writes and the only
// version it reads. Bump on any incompatible layout change; readers
// reject other versions with ErrSnapshotVersion rather than guessing.
const SnapshotVersion = 1

// snapshotShards is the section count written by Save. Readers take the
// count from the file, so this can change without a version bump.
const snapshotShards = 8

// maxSnapshotSections caps the section count ReadSnapshot accepts. Each
// section is parsed on its own goroutine, so the count is bounded far
// above what Save writes rather than taken on trust.
const maxSnapshotSections = 256

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
	// ErrSnapshotChecksum reports a section or trailer CRC mismatch.
	ErrSnapshotChecksum = errors.New("geoloc: snapshot: checksum mismatch")
	// ErrSnapshotSections reports a section count above the reader's cap.
	ErrSnapshotSections = errors.New("geoloc: snapshot: too many sections")
)

// snapshotMeta is the JSON metadata header. The Result-level totals ride
// along because they are derived from the training corpus, which a
// snapshot consumer does not have.
type snapshotMeta struct {
	Conventions         int `json:"conventions"`
	Shards              int `json:"shards"`
	SuffixesWithGeohint int `json:"suffixes_with_geohint,omitempty"`
	RoutersWithGeohint  int `json:"routers_with_geohint,omitempty"`
	RoutersGeolocated   int `json:"routers_geolocated,omitempty"`
}

// Save writes res as a compiled-index snapshot. The output is
// deterministic for a given Result (no timestamps; shard payloads are
// sorted), so identical conventions produce byte-identical snapshots.
// tracer may be nil; when set, a "snapshot-save" span records convention
// and byte counts.
func Save(w io.Writer, res *core.Result, tracer *obs.Tracer) error {
	if res == nil {
		return fmt.Errorf("geoloc: snapshot: nil result")
	}
	sp := tracer.Start("snapshot-save")
	defer sp.End()

	shards := make([]*core.Result, snapshotShards)
	for i := range shards {
		shards[i] = &core.Result{NCs: make(map[string]*core.NamingConvention)}
	}
	for suffix, nc := range res.NCs {
		shards[shardOf(suffix)].NCs[suffix] = nc
	}

	var out bytes.Buffer
	out.Write(snapshotMagic[:])
	writeU32(&out, SnapshotVersion)
	meta, err := json.Marshal(snapshotMeta{
		Conventions:         len(res.NCs),
		Shards:              snapshotShards,
		SuffixesWithGeohint: res.SuffixesWithGeohint,
		RoutersWithGeohint:  res.RoutersWithGeohint,
		RoutersGeolocated:   res.RoutersGeolocated,
	})
	if err != nil {
		return err
	}
	writeU32(&out, uint32(len(meta)))
	out.Write(meta)
	writeU32(&out, snapshotShards)
	for _, shard := range shards {
		var payload bytes.Buffer
		if err := core.WriteConventions(&payload, shard); err != nil {
			return err
		}
		writeU32(&out, uint32(payload.Len()))
		writeU32(&out, crc32.ChecksumIEEE(payload.Bytes()))
		out.Write(payload.Bytes())
	}
	writeU32(&out, crc32.ChecksumIEEE(out.Bytes()))

	sp.Count("conventions", int64(len(res.NCs)))
	sp.Count("shards", snapshotShards)
	sp.Count("bytes", int64(out.Len()))
	_, err = w.Write(out.Bytes())
	return err
}

// ReadSnapshot parses a snapshot back into a Result, verifying the
// framing, every section CRC, and the trailer CRC, and decoding the
// suffix shards concurrently. The declared lengths and counts are
// untrusted until the checksums pass: a length is read as its bytes
// arrive, so a short input fails having allocated about what it holds,
// and a section count above maxSnapshotSections is refused. tracer may
// be nil; when set, a "snapshot-load" span records section, convention,
// and byte counts.
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
	metaLen, err := readU32(cr)
	if err != nil {
		return nil, ErrSnapshotTruncated
	}
	metaBytes, err := readBytes(cr, metaLen)
	if err != nil {
		return nil, ErrSnapshotTruncated
	}
	var meta snapshotMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, fmt.Errorf("geoloc: snapshot: bad metadata header: %w", err)
	}
	nShards, err := readU32(cr)
	if err != nil {
		return nil, ErrSnapshotTruncated
	}
	if nShards > maxSnapshotSections {
		return nil, fmt.Errorf("%w: header declares %d, this build reads at most %d",
			ErrSnapshotSections, nShards, maxSnapshotSections)
	}

	payloads := make([][]byte, nShards)
	for i := range payloads {
		payloadLen, err := readU32(cr)
		if err != nil {
			return nil, ErrSnapshotTruncated
		}
		wantCRC, err := readU32(cr)
		if err != nil {
			return nil, ErrSnapshotTruncated
		}
		payload, err := readBytes(cr, payloadLen)
		if err != nil {
			return nil, ErrSnapshotTruncated
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return nil, fmt.Errorf("%w: section %d", ErrSnapshotChecksum, i)
		}
		payloads[i] = payload
	}
	bodyCRC := cr.crc
	trailer, err := readU32(r)
	if err != nil {
		return nil, ErrSnapshotTruncated
	}
	if trailer != bodyCRC {
		return nil, fmt.Errorf("%w: trailer", ErrSnapshotChecksum)
	}

	// Sections hold disjoint suffix sets, so each shard parses
	// independently and the merge below is order-insensitive.
	results := make([]*core.Result, len(payloads))
	errs := make([]error, len(payloads))
	var wg sync.WaitGroup
	for i, payload := range payloads {
		wg.Add(1)
		go func(i int, payload []byte) {
			defer wg.Done()
			results[i], errs[i] = core.ReadConventions(bytes.NewReader(payload))
		}(i, payload)
	}
	wg.Wait()
	conventions := 0
	for i, shard := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("geoloc: snapshot: section %d: %w", i, errs[i])
		}
		conventions += len(shard.NCs)
	}
	if conventions != meta.Conventions {
		return nil, fmt.Errorf("geoloc: snapshot: metadata header promises %d conventions, sections hold %d",
			meta.Conventions, conventions)
	}
	res := &core.Result{
		NCs:                 make(map[string]*core.NamingConvention, conventions),
		SuffixesWithGeohint: meta.SuffixesWithGeohint,
		RoutersWithGeohint:  meta.RoutersWithGeohint,
		RoutersGeolocated:   meta.RoutersGeolocated,
	}
	for i, shard := range results {
		for suffix, nc := range shard.NCs {
			if _, dup := res.NCs[suffix]; dup {
				return nil, fmt.Errorf("geoloc: snapshot: section %d: duplicate suffix %s across sections", i, suffix)
			}
			res.NCs[suffix] = nc
		}
	}
	sp.Count("sections", int64(nShards))
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

// shardOf assigns a suffix to a section: FNV-1a over the suffix bytes,
// reduced mod the shard count.
func shardOf(suffix string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(suffix); i++ {
		h ^= uint32(suffix[i])
		h *= prime32
	}
	return int(h % snapshotShards)
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

func writeU32(w *bytes.Buffer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.Write(buf[:])
}

// readBytes reads exactly n bytes from r into a buffer that grows as
// they arrive, so a length field promising more than r holds costs
// about what r holds, not what the field declares.
func readBytes(r io.Reader, n uint32) ([]byte, error) {
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
