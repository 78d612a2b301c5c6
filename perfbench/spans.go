package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one benchmark-side call into a layer. Spans of one request
// share req; parent is the id of the enclosing span (0 for a root).
type span struct {
	Name    string `json:"name"`
	Req     string `json:"req"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"` // since the run's epoch
	EndNS   int64  `json:"end_ns"`
}

// spans keeps a run's spans in memory until write. Not safe for
// concurrent use; the closed loop records its spans after the window.
type spans struct {
	epoch time.Time
	list  []*span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

func (s *spans) begin(name, req string, parent int) *span {
	sp := &span{Name: name, Req: req, ID: len(s.list) + 1, Parent: parent, StartNS: time.Since(s.epoch).Nanoseconds()}
	s.list = append(s.list, sp)
	return sp
}

func (s *spans) end(sp *span) {
	sp.EndNS = time.Since(s.epoch).Nanoseconds()
}

// add records a span whose interval was measured elsewhere.
func (s *spans) add(name, req string, parent int, start, end time.Time) {
	s.list = append(s.list, &span{Name: name, Req: req, ID: len(s.list) + 1, Parent: parent,
		StartNS: start.Sub(s.epoch).Nanoseconds(), EndNS: end.Sub(s.epoch).Nanoseconds()})
}

// selfTimes returns, per span name, the median self time in ms: the
// span's duration minus the time its direct children cover.
func (s *spans) selfTimes() map[string]float64 {
	child := map[int]int64{}
	for _, sp := range s.list {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.EndNS - sp.StartNS
		}
	}
	per := map[string][]float64{}
	for _, sp := range s.list {
		per[sp.Name] = append(per[sp.Name], ms(sp.EndNS-sp.StartNS-child[sp.ID]))
	}
	out := map[string]float64{}
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}

func (s *spans) names() []string {
	seen := map[string]bool{}
	var names []string
	for _, sp := range s.list {
		if !seen[sp.Name] {
			seen[sp.Name] = true
			names = append(names, sp.Name)
		}
	}
	sort.Strings(names)
	return names
}

// write stores the spans as JSON lines.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
