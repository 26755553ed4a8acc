package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary. Parent names the span
// that caused it (0 for a root), and spans of one request share Req.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so workload code records
// spans unconditionally.
type Tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// NewID reserves a span id, so children can name a parent that has not
// ended yet. It returns 0 on a nil tracer.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Add records a finished span under id (0 reserves a fresh one) and
// returns the id used.
func (t *Tracer) Add(id, parent int64, name, req string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.NewID()
	}
	s := Span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	N     int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus the time children cover
}

// MeanMs and MeanUs are the mean span duration; SelfUs the mean self time.
func (s layerStat) MeanMs() float64 { return s.mean(s.Total) / 1e6 }
func (s layerStat) MeanUs() float64 { return s.mean(s.Total) / 1e3 }
func (s layerStat) SelfUs() float64 { return s.mean(s.Self) / 1e3 }

func (s layerStat) mean(d time.Duration) float64 {
	if s.N == 0 {
		return 0
	}
	return float64(d) / float64(s.N)
}

// selfTimes groups spans by name. A span's self time is its duration
// minus the part of its interval that the union of its children covers,
// so overlapping children are not subtracted twice and a child running
// past its parent's end is clipped.
func selfTimes(spans []Span) map[string]layerStat {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerStat{}
	for _, s := range spans {
		dur := s.End - s.Start
		st := out[s.Name]
		st.N++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s.Start, s.End, children[s.ID]))
		out[s.Name] = st
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// spanHeader carries the client span id to the server, so the server
// middleware's span nests under the client call that caused it.
const spanHeader = "X-Bench-Span"

type parentKey struct{}

// routeOf names an endpoint by its pattern, not its path: job ids are
// replaced so spans of one endpoint aggregate under one name.
func routeOf(method, path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok {
		path = "/v1/jobs/{id}"
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			path += rest[i:]
		}
	}
	return method + " " + path
}

// serverSpans wraps a public Handler: each request becomes a span named
// prefix + route, parented to the client span named in its header.
func serverSpans(tr *Tracer, prefix string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, req)
		tr.Add(0, parent, prefix+"."+routeOf(req.Method, req.URL.Path), "", start, time.Now())
	})
}

// clientSpans is a RoundTripper that records each exchange as a client
// span, from sending the request until the response body is drained or
// closed, so a streamed response counts in full. The parent span comes
// from the request context (see withParent).
type clientSpans struct {
	base http.RoundTripper
	tr   *Tracer
}

// withParent names the span the request's client span nests under.
func withParent(req *http.Request, parent int64) *http.Request {
	if parent == 0 {
		return req
	}
	return req.WithContext(context.WithValue(req.Context(), parentKey{}, parent))
}

func (c *clientSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	if c.tr == nil {
		return c.base.RoundTrip(req)
	}
	parent, _ := req.Context().Value(parentKey{}).(int64)
	id := c.tr.NewID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	name := "client." + routeOf(req.Method, req.URL.Path)
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.tr.Add(id, parent, name, "", start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		c.tr.Add(id, parent, name, "", start, time.Now())
	}}
	return resp, nil
}

// spanBody ends its client span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
