package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // host seconds since the recorder was created
	EndS   float64 `json:"end_s"`
	SelfS  float64 `json:"self_s"` // duration minus the time its children cover
}

// spans records host-time spans in memory; they are written once, at the
// end of the traced run. A nil *spans records nothing, so the untraced
// runs pay one branch per call site.
type spans struct {
	origin time.Time
	all    []*span
	stack  []*span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// begin opens a span under the innermost open span and returns its end.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	sp := &span{ID: len(s.all), Parent: -1, Name: name, StartS: time.Since(s.origin).Seconds()}
	if n := len(s.stack); n > 0 {
		sp.Parent = s.stack[n-1].ID
	}
	s.all = append(s.all, sp)
	s.stack = append(s.stack, sp)
	return func() {
		sp.EndS = time.Since(s.origin).Seconds()
		sp.SelfS += sp.EndS - sp.StartS
		s.stack = s.stack[:len(s.stack)-1]
		if sp.Parent >= 0 {
			s.all[sp.Parent].SelfS -= sp.EndS - sp.StartS
		}
	}
}

// selfByName sums self time per span name.
func (s *spans) selfByName() map[string]float64 {
	out := make(map[string]float64)
	for _, sp := range s.all {
		out[sp.Name] += sp.SelfS
	}
	return out
}

// writeJSON writes every span as one JSON array.
func (s *spans) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s.all)
}
