package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one member round trip share a trip id; parent is the
// index of the enclosing span (-1 at the top).
type span struct {
	start  int64  // ns since the tracer's epoch
	dur    uint32 // ns
	trip   int32
	parent int32
	name   uint16
}

// tracer records spans in memory; they are analysed (and optionally
// written out) only after the window ends. A disabled tracer records
// nothing and costs one branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	names []string
	ids   map[string]uint16
	spans []span
	stack []int32
	trip  int32
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now(), ids: map[string]uint16{}}
	if on {
		t.spans = make([]span, 0, 1<<20)
	}
	return t
}

// newTrip starts a new member round trip: spans begun from now on share
// its id.
func (t *tracer) newTrip() {
	if t.on {
		t.trip++
	}
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	h := int32(len(t.spans))
	t.spans = append(t.spans, span{name: id, trip: t.trip, parent: parent, start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, h)
	return h
}

func (t *tracer) end(h int32) {
	if h < 0 {
		return
	}
	t.spans[h].dur = uint32(int64(time.Since(t.epoch)) - t.spans[h].start)
	t.stack = t.stack[:len(t.stack)-1]
}

// layerOf maps a span name ("core.Session.Next", "http.GET /api/question")
// to its layer, the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// analysis is what the recorded spans give: per-layer self time (span
// duration minus the time its child spans cover) and per-name duration
// samples.
type analysis struct {
	self  map[string]time.Duration
	calls map[string]samples
}

func (t *tracer) analyse() analysis {
	a := analysis{self: map[string]time.Duration{}, calls: map[string]samples{}}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += int64(s.dur)
		}
	}
	for i, s := range t.spans {
		name := t.names[s.name]
		d := int64(s.dur)
		a.self[layerOf(name)] += time.Duration(d - child[i])
		a.calls[name] = append(a.calls[name], d)
	}
	return a
}

// write dumps the spans as gzipped tab-separated lines: trip, span
// index, parent index, name, start ns, end ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	z, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(z)
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.trip, i, s.parent, t.names[s.name], s.start, s.start+int64(s.dur))
	}
	err = w.Flush()
	if cerr := z.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
