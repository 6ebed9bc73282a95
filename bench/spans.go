package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from the
// outside: the traced pass brackets each public function it drives.
// Parent 0 means a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotal is the running aggregate of every finished span of one name.
type spanTotal struct {
	ns    int64
	count int
}

// recorder keeps the traced pass's spans in memory. It is used by one
// goroutine only (the traced pass is sequential so its counts repeat), so
// it takes no lock.
type recorder struct {
	t0     time.Time
	spans  []span
	totals map[string]*spanTotal
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), totals: make(map[string]*spanTotal)}
}

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name})
	s := &r.spans[len(r.spans)-1]
	s.Start = int64(time.Since(r.t0))
	return s.ID
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := int64(time.Since(r.t0))
	s := &r.spans[id-1]
	s.End = now
	t := r.totals[s.Name]
	if t == nil {
		t = &spanTotal{}
		r.totals[s.Name] = t
	}
	t.ns += s.End - s.Start
	t.count++
	return time.Duration(s.End - s.Start)
}

// time runs fn inside one span.
func (r *recorder) time(name string, parent int, fn func()) time.Duration {
	id := r.begin(name, parent)
	fn()
	return r.end(id)
}

// meanNS is the mean duration in nanoseconds of the spans named name,
// with their count; per is how many operations one span covers.
func (r *recorder) meanNS(name string, per int) (float64, int) {
	t := r.totals[name]
	if t == nil || t.count == 0 {
		return 0, 0
	}
	return float64(t.ns) / float64(t.count*per), t.count * per
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children are clipped to
// the parent's interval and overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// meanSelfNS is the mean self time in nanoseconds of the spans named name.
func (r *recorder) meanSelfNS(name string) float64 {
	self := selfTimes(r.spans)
	var total int64
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			total += self[s.ID]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// write dumps the raw spans as JSON; the traced pass calls it at exit.
func (r *recorder) write(path string) error {
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
