package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// The traced run records spans from the benchmark's own code: a root
// span per wire request, a "wire" child timing the request on the
// socket, and children timing the in-process calls into each layer the
// daemon runs for that request, replayed on the same hostname against
// replicas built the way the daemon builds its own. Spans stay in
// memory, one recorder per connection so recording takes no lock, and
// are written as JSONL when the run ends.

// span is one recorded interval. parent indexes the same recorder's
// spans; -1 marks a root.
type span struct {
	req    int64
	parent int32
	name   string
	start  time.Duration
	dur    time.Duration
	n      int32 // a count the span carries, e.g. regexes tried
}

type recorder struct {
	t0    time.Time
	base  int64 // request ids of this recorder start here
	next  int64
	spans []span
}

func newRecorder(t0 time.Time, conn int) *recorder {
	return &recorder{t0: t0, base: int64(conn) << 32, spans: make([]span, 0, 1<<16)}
}

// begin opens the root span of a new request.
func (r *recorder) begin(name string) int {
	r.next++
	r.spans = append(r.spans, span{req: r.base + r.next, parent: -1, name: name, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// child opens a span under parent, in the same request.
func (r *recorder) child(parent int, name string) int {
	r.spans = append(r.spans, span{req: r.spans[parent].req, parent: int32(parent), name: name, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].dur = time.Since(r.t0) - r.spans[i].start }

// selfTimes returns each span's duration minus the time its direct
// children cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	return self
}

// traceRecord is one line of the JSONL trace.
type traceRecord struct {
	Front  string `json:"front"`
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"`
	N      int32  `json:"n,omitempty"`
}

// traceSample keeps the JSONL file to tens of megabytes: the spans of
// one request in traceSample are written. Every span of every request
// feeds the reported statistics.
const traceSample = 8

// writeTrace appends the spans of every traceSample-th request of recs
// to the JSONL file at path. Span ids are unique within the file and
// ascend with the recorded order; parent 0 means a root. It returns the
// number of spans written.
func writeTrace(path, front string, recs []*recorder, nextID *int) (int, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	written := 0
	b := bufio.NewWriter(f)
	enc := json.NewEncoder(b)
	for _, r := range recs {
		self := r.selfTimes()
		base := *nextID
		for i, s := range r.spans {
			if s.req%traceSample != 0 {
				continue
			}
			written++
			rec := traceRecord{
				Front: front, Req: s.req, ID: base + i + 1, Name: s.name,
				Start: int64(s.start), Dur: int64(s.dur), Self: int64(self[i]), N: s.n,
			}
			if s.parent >= 0 {
				rec.Parent = base + int(s.parent) + 1
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return 0, err
			}
		}
		*nextID += len(r.spans)
	}
	if err := b.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return written, f.Close()
}

// spanStats gathers per-name durations and counts across recorders.
type spanStats struct {
	dur  map[string][]float64 // ns
	self map[string][]float64 // ns
	n    map[string][]float64
}

func collectSpans(recs []*recorder) spanStats {
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}, n: map[string][]float64{}}
	for _, r := range recs {
		self := r.selfTimes()
		for i, s := range r.spans {
			st.dur[s.name] = append(st.dur[s.name], float64(s.dur))
			st.self[s.name] = append(st.self[s.name], float64(self[i]))
			st.n[s.name] = append(st.n[s.name], float64(s.n))
		}
	}
	return st
}

// medianNS is the median duration of the spans named name, in ns.
func (st spanStats) medianNS(name string) float64 {
	return median(append([]float64(nil), st.dur[name]...))
}
