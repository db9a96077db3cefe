// Package trace records a run's timeline and writes it as Chrome
// trace-event JSON, which loads in ui.perfetto.dev: spans for demand
// misses, prefetches and DRAM bank activity, plus flow events that link
// each prefetch to the hint-planting demand miss that opened its region.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Timeline collects simulator events and writes them as Chrome
// trace-event JSON (the "JSON Array Format" with a traceEvents wrapper),
// which loads directly in ui.perfetto.dev or chrome://tracing.
//
// One simulated CPU cycle is mapped to one microsecond of trace time
// (ts/dur are expressed in microseconds by the format), so the viewer's
// time axis reads directly in cycles.
//
// Tracks:
//   - "L2 demand miss": one duration span per demand miss, issue → fill.
//   - "prefetch": one span per hardware/software prefetch, issue → fill,
//     with an args.outcome of "useful" (demand-referenced after fill),
//     "late" (demand merged while still in flight), or "unused".
//   - "dram chN bankM": bank busy spans, with row hit/miss and request
//     kind in args.
//
// The timeline caps its event count (SetLimit) so long runs degrade by
// dropping the tail rather than exhausting memory; Dropped reports how
// many events were discarded.
type Timeline struct {
	events  []traceEvent
	tids    map[string]int
	pfOpen  map[uint64]int // block -> index of its latest prefetch span
	limit   int
	dropped uint64

	// Flow-event state (see flow.go): the cycle of the last hint-planting
	// demand miss per 4 KB region, and the open flow id per prefetched
	// block.
	hintMark map[uint64]uint64
	flowOpen map[uint64]string
	flowSeq  uint64
}

// DefaultEventLimit bounds in-memory timeline events (~100 B each).
const DefaultEventLimit = 1 << 20

// traceEvent is one Chrome trace-event record. Only the fields the format
// requires for complete ("X"), metadata ("M"), and flow ("s"/"t"/"f")
// events are emitted.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Id   string         `json:"id,omitempty"` // flow id, shared s→t→f
	Bp   string         `json:"bp,omitempty"` // binding point ("e": enclosing)
	Args map[string]any `json:"args,omitempty"`
}

// NewTimeline returns an empty timeline with the default event limit.
func NewTimeline() *Timeline {
	return &Timeline{
		tids:     map[string]int{},
		pfOpen:   map[uint64]int{},
		hintMark: map[uint64]uint64{},
		flowOpen: map[uint64]string{},
		limit:    DefaultEventLimit,
	}
}

// SetLimit overrides the event cap (minimum 1).
func (t *Timeline) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	t.limit = n
}

// Len returns the number of recorded events (excluding thread metadata).
func (t *Timeline) Len() int { return len(t.events) }

// Dropped returns how many events were discarded after the cap was hit.
func (t *Timeline) Dropped() uint64 { return t.dropped }

// tid interns a track name, assigning thread ids in first-use order; the
// matching thread_name metadata events are emitted by WriteJSON.
func (t *Timeline) tid(track string) int {
	if id, ok := t.tids[track]; ok {
		return id
	}
	id := len(t.tids) + 1
	t.tids[track] = id
	return id
}

func (t *Timeline) add(e traceEvent) int {
	if len(t.events) >= t.limit {
		t.dropped++
		return -1
	}
	t.events = append(t.events, e)
	return len(t.events) - 1
}

// DemandMiss records a demand L2 miss serviced from cycle start to done.
func (t *Timeline) DemandMiss(pc, block, start, done uint64) {
	if t == nil {
		return
	}
	t.add(traceEvent{
		Name: "demand miss", Cat: "mem", Ph: "X",
		Ts: start, Dur: span(start, done), Tid: t.tid("L2 demand miss"),
		Args: map[string]any{"pc": pc, "block": fmt.Sprintf("%#x", block)},
	})
}

// PrefetchIssue records a prefetch lifetime from issue to fill. The span's
// outcome starts as "unused" and is upgraded by PrefetchOutcome when the
// block is demand-referenced.
func (t *Timeline) PrefetchIssue(block, start, done uint64, software bool) {
	if t == nil {
		return
	}
	name := "prefetch"
	if software {
		name = "sw prefetch"
	}
	idx := t.add(traceEvent{
		Name: name, Cat: "pf", Ph: "X",
		Ts: start, Dur: span(start, done), Tid: t.tid("prefetch"),
		Args: map[string]any{"block": fmt.Sprintf("%#x", block), "outcome": "unused"},
	})
	if idx >= 0 {
		t.pfOpen[block] = idx
	}
	t.startFlow(block, start)
}

// PrefetchOutcome marks the most recent prefetch span for block with its
// outcome ("useful" or "late"). Outcomes only upgrade: a span already
// marked is not downgraded back to a weaker state by later events.
func (t *Timeline) PrefetchOutcome(block uint64, outcome string) {
	if t == nil {
		return
	}
	idx, ok := t.pfOpen[block]
	if !ok {
		return
	}
	args := t.events[idx].Args
	if args["outcome"] == "unused" {
		args["outcome"] = outcome
	}
}

// BankBusy records a DRAM bank occupancy span on channel ch, bank bk.
func (t *Timeline) BankBusy(ch, bk int, start, busyUntil uint64, rowHit bool, kind string) {
	if t == nil {
		return
	}
	row := "miss"
	if rowHit {
		row = "hit"
	}
	t.add(traceEvent{
		Name: kind, Cat: "dram", Ph: "X",
		Ts: start, Dur: span(start, busyUntil),
		Tid:  t.tid(fmt.Sprintf("dram ch%d bank%d", ch, bk)),
		Args: map[string]any{"row": row},
	})
}

// span guards against a nonpositive duration, which some viewers reject.
func span(start, end uint64) uint64 {
	if end <= start {
		return 1
	}
	return end - start
}

// WriteJSON emits the timeline in Chrome trace-event JSON object format.
func (t *Timeline) WriteJSON(w io.Writer) error {
	// Metadata events give the tracks human-readable names, sorted by tid
	// so output is deterministic.
	type track struct {
		name string
		id   int
	}
	tracks := make([]track, 0, len(t.tids))
	for name, id := range t.tids {
		tracks = append(tracks, track{name, id})
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i].id < tracks[j].id })

	all := make([]traceEvent, 0, len(tracks)+1+len(t.events))
	all = append(all, traceEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "grpsim"},
	})
	for _, tr := range tracks {
		all = append(all, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tr.id,
			Args: map[string]any{"name": tr.name},
		})
	}
	all = append(all, t.events...)

	doc := struct {
		TraceEvents []traceEvent   `json:"traceEvents"`
		DisplayUnit string         `json:"displayTimeUnit"`
		OtherData   map[string]any `json:"otherData,omitempty"`
	}{
		TraceEvents: all,
		DisplayUnit: "ms",
		OtherData: map[string]any{
			"time_unit": "1 us = 1 CPU cycle",
			"dropped":   t.dropped,
		},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
