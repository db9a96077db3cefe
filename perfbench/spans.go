package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced run. Spans nest: parent is
// the index of the enclosing span (-1 for a root), and every span of one
// operation carries that operation's id.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int
	Op     int
	Args   map[string]any
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans of one single-threaded traced run in memory;
// writeChrome saves them once at exit.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of unfinished spans
	op    int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// beginOp starts a root span for a new operation and returns its index.
func (r *recorder) beginOp(name string) int {
	r.op++
	return r.begin(name)
}

// begin starts a span nested in the innermost open one. A nil recorder
// records nothing, so untraced callers can share traced code.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Op: r.op})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("perfbench: spans closed out of order")
	}
	r.spans[id].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// endThrough closes every span still open inside span id, then id
// itself; an operation that failed midway leaves no span open.
func (r *recorder) endThrough(id int) {
	for len(r.open) > 0 {
		top := r.open[len(r.open)-1]
		r.end(top)
		if top == id {
			return
		}
	}
}

// selfTimes returns each span's duration minus the durations of its
// direct children: the time the layer spent in its own code.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// writeChrome saves the spans as Chrome trace-event JSON (complete "X"
// events; one track per operation).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"span": i, "parent": s.Parent, "op": s.Op}
		for k, v := range s.Args {
			args[k] = v
		}
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op, Args: args,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
