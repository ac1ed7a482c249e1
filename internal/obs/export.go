package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

func (d SpanData) attrMap() map[string]string {
	if len(d.Attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(d.Attrs))
	for _, a := range d.Attrs {
		m[a.Key] = attrString(a.Value)
	}
	return m
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// chromeEvent is one trace_event record in the Chrome/Perfetto JSON
// format: a "complete" (ph "X") event with microsecond timestamps.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the recorded spans as a Chrome trace_event
// JSON document loadable in chrome://tracing and ui.perfetto.dev. Each
// span tree renders as one track (tid = root span id), so nested spans
// stack under their root operation. Unfinished spans are exported with
// zero duration.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	doc := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, d := range spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: d.Name, Ph: "X", Ts: us(d.Start), Dur: us(d.Duration()),
			Pid: 1, Tid: d.Root, Args: d.attrMap(),
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: writing Chrome trace: %w", err)
	}
	return nil
}

// Report renders the span forest as an indented summary tree — one
// line per span with its duration and attributes — so a CLI can show
// where every byte and millisecond of an operation went. A nil or
// empty tracer returns "".
func (t *Tracer) Report() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return ""
	}
	children := make(map[uint64][]SpanData)
	var roots []SpanData
	for _, d := range spans {
		if d.Parent == 0 {
			roots = append(roots, d)
		} else {
			children[d.Parent] = append(children[d.Parent], d)
		}
	}
	byStart := func(s []SpanData) {
		sort.SliceStable(s, func(i, j int) bool {
			if s[i].Start != s[j].Start {
				return s[i].Start < s[j].Start
			}
			return s[i].ID < s[j].ID
		})
	}
	byStart(roots)
	for _, c := range children {
		byStart(c)
	}

	var b strings.Builder
	var walk func(d SpanData, prefix string, last bool, top bool)
	walk = func(d SpanData, prefix string, last bool, top bool) {
		line := prefix
		childPrefix := prefix
		if !top {
			if last {
				line += "`- "
				childPrefix += "   "
			} else {
				line += "|- "
				childPrefix += "|  "
			}
		}
		dur := "(unfinished)"
		if d.Ended {
			dur = d.Duration().Round(time.Microsecond).String()
		}
		line += fmt.Sprintf("%-*s %10s", 40-len(prefix), d.Name+attrSuffix(d), dur)
		b.WriteString(strings.TrimRight(line, " ") + "\n")
		kids := children[d.ID]
		for i, k := range kids {
			walk(k, childPrefix, i == len(kids)-1, false)
		}
	}
	for _, r := range roots {
		walk(r, "", true, true)
	}
	return b.String()
}

func attrSuffix(d SpanData) string {
	if len(d.Attrs) == 0 {
		return ""
	}
	parts := make([]string, 0, len(d.Attrs))
	for _, a := range d.Attrs {
		parts = append(parts, a.Key+"="+attrString(a.Value))
	}
	return " [" + strings.Join(parts, " ") + "]"
}
