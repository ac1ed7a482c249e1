package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// simNow builds a manually advanced clock for deterministic span
// times.
type simNow struct{ t time.Duration }

func (s *simNow) now() time.Duration { return s.t }

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("op")
	if sp != nil {
		t.Fatalf("nil tracer Start returned %v, want nil", sp)
	}
	// Every span method must absorb the nil receiver.
	sp.Set("k", 1)
	child := sp.Child("sub")
	if child != nil {
		t.Fatalf("nil span Child returned %v, want nil", child)
	}
	child.End()
	sp.End()
	sp.EndAt(5)
	tr.Record("r", 0, 1)
	tr.Reset()
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer Spans = %v, want nil", got)
	}
	if tr.Report() != "" {
		t.Fatalf("nil tracer Report = %q, want empty", tr.Report())
	}
	if tr.Now() != 0 {
		t.Fatalf("nil tracer Now = %v, want 0", tr.Now())
	}
}

func TestSpanTree(t *testing.T) {
	clk := &simNow{}
	tr := NewSimTracer(clk.now)

	root := tr.Start("client.upload", String("name", "a.txt"))
	clk.t = 10 * time.Millisecond
	att := root.Child("client.attempt", Int("attempt", 1))
	clk.t = 15 * time.Millisecond
	full := att.Child("client.full_upload")
	full.Set("payload_bytes", int64(4096))
	clk.t = 40 * time.Millisecond
	full.End()
	att.End()
	clk.t = 41 * time.Millisecond
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	r, a, f := byName["client.upload"], byName["client.attempt"], byName["client.full_upload"]
	if r.Parent != 0 || a.Parent != r.ID || f.Parent != a.ID {
		t.Fatalf("broken parent chain: root=%+v attempt=%+v full=%+v", r, a, f)
	}
	if r.Root != r.ID || a.Root != r.ID || f.Root != r.ID {
		t.Fatalf("root ids not propagated: %+v %+v %+v", r, a, f)
	}
	if f.Start != 15*time.Millisecond || f.Duration() != 25*time.Millisecond {
		t.Fatalf("full span times wrong: start %v dur %v", f.Start, f.Duration())
	}
	if f.Attr("payload_bytes") != "4096" || r.Attr("name") != "a.txt" {
		t.Fatalf("attrs lost: %v / %v", f.Attrs, r.Attrs)
	}

	rep := tr.Report()
	for _, want := range []string{"client.upload", "client.attempt", "client.full_upload", "payload_bytes=4096"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	// Children must be indented under the root.
	if strings.Index(rep, "client.upload") > strings.Index(rep, "client.attempt") {
		t.Fatalf("report order wrong:\n%s", rep)
	}
}

func TestEndIsIdempotentAndClamped(t *testing.T) {
	clk := &simNow{t: 10}
	tr := NewSimTracer(clk.now)
	sp := tr.Start("op")
	sp.EndAt(5) // before start: clamped
	sp.EndAt(50)
	d := tr.Spans()[0]
	if !d.Ended || d.End != 10 {
		t.Fatalf("span end = %v (ended %v), want clamped first end 10", d.End, d.Ended)
	}
}

func TestRecordExplicitTimes(t *testing.T) {
	tr := NewSimTracer(func() time.Duration { return 0 })
	tr.Record("net.session", 3*time.Second, 5*time.Second, Int("up_app", 100))
	d := tr.Spans()[0]
	if d.Start != 3*time.Second || d.Duration() != 2*time.Second {
		t.Fatalf("recorded span %+v", d)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	clk := &simNow{}
	tr := NewSimTracer(clk.now)
	root := tr.Start("a", String("k", "v"))
	clk.t = 2 * time.Millisecond
	root.Child("b").End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Tid  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
	}
	if doc.TraceEvents[0].Tid != doc.TraceEvents[1].Tid {
		t.Fatalf("spans of one tree on different tids: %+v", doc.TraceEvents)
	}
	if doc.TraceEvents[0].Args["k"] != "v" {
		t.Fatalf("args lost: %+v", doc.TraceEvents[0].Args)
	}
	if doc.TraceEvents[0].Dur != 2000 {
		t.Fatalf("root dur %v µs, want 2000", doc.TraceEvents[0].Dur)
	}
}

func TestResetDropsSpans(t *testing.T) {
	tr := NewTracer()
	tr.Start("x").End()
	tr.Reset()
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("after Reset, %d spans remain", n)
	}
}
