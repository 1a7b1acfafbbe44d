package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceRecord is one exported span, the JSONL schema. Ids are assigned
// in canonical output order (1..n), so the same recorded spans always
// serialize to the same bytes. Durations are microseconds: fine enough
// for stage-level profiling, coarse enough that the schema does not
// invite nanosecond-diffing.
type TraceRecord struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent,omitempty"`
	Name     string           `json:"name"`
	Key      string           `json:"key,omitempty"`
	Worker   int              `json:"worker,omitempty"`
	StartUS  int64            `json:"start_us"`
	DurUS    int64            `json:"dur_us"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Export returns all finished spans in canonical order: by path (the
// slash-joined name chain), then key, then start sequence. Requires a
// tracer built with RetainSpans; a nil or aggregate-only tracer exports
// nothing.
func (t *Tracer) Export() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	recs := make([]spanRecord, len(t.finished))
	copy(recs, t.finished)
	t.mu.Unlock()

	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].path != recs[j].path {
			return recs[i].path < recs[j].path
		}
		if recs[i].key != recs[j].key {
			return recs[i].key < recs[j].key
		}
		return recs[i].seq < recs[j].seq
	})

	// Renumber ids in output order so they carry no trace of the
	// (scheduling-dependent) order spans were started in.
	newID := make(map[uint64]int, len(recs))
	for i, r := range recs {
		newID[r.seq] = i + 1
	}
	out := make([]TraceRecord, len(recs))
	for i, r := range recs {
		tr := TraceRecord{
			ID:      i + 1,
			Parent:  newID[r.parentSeq], // zero when parent unknown/absent
			Name:    r.name,
			Key:     r.key,
			Worker:  r.worker,
			StartUS: r.startNS / 1000,
			DurUS:   r.durNS / 1000,
		}
		if len(r.counts) > 0 {
			tr.Counters = make(map[string]int64, len(r.counts))
			for _, kv := range r.counts {
				tr.Counters[kv.name] = kv.n
			}
		}
		out[i] = tr
	}
	return out
}

// WriteJSONL writes the canonical trace, one JSON object per line.
// encoding/json marshals map keys sorted, so output is byte-stable for
// a given set of recorded spans.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, rec := range t.Export() {
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("obs: marshal span %d: %w", rec.ID, err)
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
