package main

import (
	"runtime"
	"sort"
	"time"
)

// span is one traced call of the in-process replay.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the trace began
	End   int64  `json:"end_ns"`
	// Parent indexes the span that caused this one; -1 for a root.
	Parent int32 `json:"parent"`
	// Point is the index of the design point within its pass; spans of
	// one point share it. -1 outside any point.
	Point int32 `json:"point"`
	Pass  int32 `json:"pass"`
}

// tracer records spans in memory. With allocs set it records no spans:
// each call is bracketed by runtime.ReadMemStats instead, and the bytes
// it allocated are summed per name. Allocation figures therefore come
// from a separate replay and never inflate a timed span.
type tracer struct {
	t0     time.Time
	spans  []span
	parent int32
	point  int32
	pass   int32
	allocs map[string]uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), parent: -1, point: -1} }

func newAllocTracer() *tracer {
	t := newTracer()
	t.allocs = make(map[string]uint64)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the current one and makes it current.
func (t *tracer) begin(name string) int32 {
	if t.allocs != nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.parent, Point: t.point, Pass: t.pass})
	i := int32(len(t.spans) - 1)
	t.parent = i
	t.spans[i].Start = t.now()
	return i
}

// end closes span i, which must be the current one.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].End = t.now()
	t.parent = t.spans[i].Parent
}

// call runs fn as one traced call named name.
func (t *tracer) call(name string, fn func()) {
	if t.allocs != nil {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		t.allocs[name] += after.TotalAlloc - before.TotalAlloc
		return
	}
	i := t.begin(name)
	fn()
	t.end(i)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, children[int32(i)], s.Start, s.End)
	}
	return self
}

// covered measures the union of the kids' intervals clipped to [lo, hi).
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// passCalls aggregates the self time (ns) and call count of every call
// name within each pass.
type passCalls struct {
	self  map[string]int64
	calls map[string]int
}

func aggregate(spans []span) map[int32]passCalls {
	self := selfTimes(spans)
	out := make(map[int32]passCalls)
	for i, s := range spans {
		pc, ok := out[s.Pass]
		if !ok {
			pc = passCalls{self: make(map[string]int64), calls: make(map[string]int)}
			out[s.Pass] = pc
		}
		pc.self[s.Name] += self[i]
		pc.calls[s.Name]++
	}
	return out
}
