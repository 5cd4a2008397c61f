package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ids/internal/obs"
)

// Spans of the traced run. They are recorded from the benchmark's own
// code, around each call it makes into a layer; the lifecycle times and
// operator rows the program already returns are attached as children.
// Spans stay in memory and are written out when the run ends.

type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for a root
	Req    int       `json:"req"`    // shared by one operation's spans
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer collects spans; a nil *tracer records nothing, so the timed
// runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
	req   int
}

// newReq returns a fresh request id for one operation.
func (t *tracer) newReq() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

// add records a finished span and returns its id.
func (t *tracer) add(req, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// attachTrace hangs the program's returned lifecycle (parse, plan,
// exec) under parent, and each operator row under exec. Operators run
// on every rank at once, so each is laid out in plan order with its
// slowest rank's wall time, clamped to the exec span.
func (t *tracer) attachTrace(req, parent int, start time.Time, tr *obs.QueryTrace) {
	if t == nil || tr == nil {
		return
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	p0 := start
	p1 := p0.Add(sec(tr.ParseSeconds))
	p2 := p1.Add(sec(tr.PlanSeconds))
	p3 := p2.Add(sec(tr.ExecSeconds))
	t.add(req, parent, "sparql.parse", p0, p1)
	t.add(req, parent, "plan.build", p1, p2)
	exec := t.add(req, parent, "exec", p2, p3)
	at := p2
	for _, op := range tr.Ops {
		end := at.Add(sec(op.WallMax))
		if end.After(p3) {
			end = p3
		}
		t.add(req, exec, "exec."+op.Op, at, end)
		at = end
	}
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name       string
	count      int
	total, own time.Duration
}

// selfTimes aggregates spans by name: total duration and self time,
// the part of each span's interval not covered by its children.
func (t *tracer) selfTimes() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		d := s.End.Sub(s.Start)
		r.count++
		r.total += d
		r.own += d - covered(s, kids[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].own > out[j].own })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(p.Start) {
			s = p.Start
		}
		if e.After(p.End) {
			e = p.End
		}
		if e.After(s) {
			iv = append(iv, [2]time.Time{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	for i, v := range iv {
		if i == 0 || v[0].After(curE) {
			if i > 0 {
				total += curE.Sub(curS)
			}
			curS, curE = v[0], v[1]
			continue
		}
		if v[1].After(curE) {
			curE = v[1]
		}
	}
	if len(iv) > 0 {
		total += curE.Sub(curS)
	}
	return total
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return bw.Flush()
}
