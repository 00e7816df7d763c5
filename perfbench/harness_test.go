package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

func TestParseSweepGrammarStream(t *testing.T) {
	body := `{"sweep_id":"ab","space_hash":"cd","grid_size":2,"start_index":0,"end_index":2}
{"seq":0,"cursor":"qc1:x:1","point":{"app":"BV","topology":"L6","capacity":14,"gate":"FM","reorder":"GS"},"result":{"fidelity":0.5},"cached":false,"elapsed_us":10}
{"seq":1,"cursor":"qc1:x:2","point":{"app":"BV","topology":"L6","capacity":18,"gate":"FM","reorder":"GS"},"error":"boom","cached":false,"elapsed_us":3}
{"done":true,"total":2,"failed":1,"cache_hits":0,"elapsed_us":20,"sweep_id":"ab"}
`
	got, err := parseSweep([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(got.Rows))
	}
	r0, r1 := got.Rows[0], got.Rows[1]
	if r0.Seq != 0 || r0.Point.String() != "BV/L6/cap14/FM-GS" || string(r0.Result) != `{"fidelity":0.5}` {
		t.Errorf("row 0 = %+v", r0)
	}
	if want := len(strings.Split(body, "\n")[1]) + 1; r0.Bytes != want {
		t.Errorf("row 0 bytes = %d, want %d", r0.Bytes, want)
	}
	if r1.Error != "boom" || r1.Result != nil {
		t.Errorf("row 1 = %+v", r1)
	}
	if s := got.Summary; s == nil || !s.Done || s.Total != 2 {
		t.Errorf("summary = %+v", s)
	}
}

func TestParseSweepRejects(t *testing.T) {
	for name, body := range map[string]string{
		"no summary":       `{"seq":0,"point":{"app":"BV","topology":"L6","capacity":14}}` + "\n",
		"after summary":    `{"done":true,"total":0}` + "\n" + `{"seq":0,"point":{"app":"BV","topology":"L6","capacity":14}}` + "\n",
		"not json":         "HTTP/1.1 500\n",
		"unknown line":     `{"error":"sweep: bad"}` + "\n",
		"bad point in row": `{"seq":0,"point":{"app":"BV","nope":1}}` + "\n" + `{"done":true}` + "\n",
	} {
		if _, err := parseSweep([]byte(body)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestCheckRows(t *testing.T) {
	pts := []core.Point{
		{App: "BV", Topology: "L6", Capacity: 14, Gate: models.FM, Reorder: models.GS},
		{App: "BV", Topology: "L6", Capacity: 18, Gate: models.FM, Reorder: models.GS},
		{App: "BV", Topology: "L6", Capacity: 22, Gate: models.FM, Reorder: models.GS},
	}
	good := `{"total_time_us":3,"compute_time_us":2,"comm_time_us":1,"idle_time_us":0,"log_fidelity":0,"fidelity":1}`
	want := expected{}
	for _, p := range pts {
		want[p.String()] = []byte(good)
	}
	rows := func(results ...string) sweepBody {
		var b sweepBody
		for i, r := range results {
			if r == "" {
				continue
			}
			b.Rows = append(b.Rows, row{Seq: i, Point: pts[i], Result: json.RawMessage(r)})
		}
		b.Summary = &summary{Done: true, Total: len(pts)}
		return b
	}
	if n, probs := checkRows(pts, want, rows(good, good, good)); n != 0 {
		t.Fatalf("all good: %d failed: %v", n, probs)
	}
	spaced := strings.ReplaceAll(good, ",", ", ")
	if n, _ := checkRows(pts, want, rows(good, spaced, good)); n != 0 {
		t.Errorf("whitespace-only difference: %d failed", n)
	}
	other := strings.Replace(good, `"fidelity":1`, `"fidelity":0.9`, 1)
	if n, _ := checkRows(pts, want, rows(good, other, "")); n != 2 {
		t.Errorf("one wrong and one missing: %d failed, want 2", n)
	}
	b := rows(good, good, good)
	b.Summary.Total = 2
	if n, _ := checkRows(pts, want, b); n != len(pts) {
		t.Errorf("short summary: %d failed, want all", n)
	}
}

func TestCheckInvariants(t *testing.T) {
	mod := core.Point{Topology: "Mod2:G2x3"}
	flat := core.Point{Topology: "G2x3"}
	for _, c := range []struct {
		pt     core.Point
		result string
		ok     bool
	}{
		{flat, `{"total_time_us":3,"compute_time_us":2,"comm_time_us":1,"idle_time_us":0,"log_fidelity":0,"fidelity":1}`, true},
		{mod, `{"total_time_us":3,"compute_time_us":2,"comm_time_us":1,"idle_time_us":0,"log_fidelity":0,"fidelity":1,"link_transits":4}`, true},
		{flat, `{"total_time_us":4,"compute_time_us":2,"comm_time_us":1,"idle_time_us":0,"log_fidelity":0,"fidelity":1}`, false},
		{flat, `{"total_time_us":3,"compute_time_us":2,"comm_time_us":1,"idle_time_us":0,"log_fidelity":-1,"fidelity":1}`, false},
		{flat, `{"total_time_us":3,"compute_time_us":2,"comm_time_us":1,"idle_time_us":0,"log_fidelity":0.5,"fidelity":1.6487212707001282}`, false},
		{mod, `{"total_time_us":3,"compute_time_us":2,"comm_time_us":1,"idle_time_us":0,"log_fidelity":0,"fidelity":1}`, false},
		{flat, `{"total_time_us":3,"compute_time_us":2,"comm_time_us":1,"idle_time_us":0,"log_fidelity":0,"fidelity":1,"link_transits":1}`, false},
	} {
		if err := checkInvariants(c.pt, []byte(c.result)); (err == nil) != c.ok {
			t.Errorf("%s %s: err = %v, want ok = %t", c.pt.Topology, c.result, err, c.ok)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds a space and a ')'; utime and stime are 1234
	// and 56.
	line := "4242 (qcc d) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 8 0 777 1000000 2000 18446744073709551615\n"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1290 {
		t.Errorf("cpu ticks = %d, want 1290", got)
	}
	if _, err := parseStatCPU("4242 (short) S 1 2"); err == nil {
		t.Error("truncated stat line parsed without error")
	}
	if _, err := parseStatCPU("no parens here"); err == nil {
		t.Error("stat line without a command name parsed without error")
	}
}

func TestParseStatusField(t *testing.T) {
	status := "Name:\tqccdd\nVmPeak:\t 2000000 kB\nVmHWM:\t  1597436 kB\nVmRSS:\t   30000 kB\n"
	got, err := parseStatusField(status, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if got != 1597436 {
		t.Errorf("VmHWM = %d, want 1597436", got)
	}
	if _, err := parseStatusField(status, "VmSwap"); err == nil {
		t.Error("absent field parsed without error")
	}
}

func TestHostCPUSteal(t *testing.T) {
	a, err := parseHostCPU("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 35 {
		t.Fatalf("a = %+v, want total 1000 steal 35", a)
	}
	b, err := parseHostCPU("cpu  150 0 60 900 10 0 5 75 9 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.sub(a).stealFrac(); got != 0.2 {
		t.Errorf("steal frac = %v, want 0.2", got)
	}
	if got := b.sub(b).stealFrac(); got != 0 {
		t.Errorf("steal frac over no ticks = %v, want 0", got)
	}
	if _, err := parseHostCPU("intr 1 2 3\n"); err == nil {
		t.Error("non-cpu line parsed without error")
	}
}

func TestSelfTimes(t *testing.T) {
	// pass [0,100) holds point [10,90), which holds three calls: a [10,30),
	// b [20,50) overlapping a, and c [60,95) running past the point's end.
	// A second root [100,120) has no children.
	spans := []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "point", Start: 10, End: 90, Parent: 0},
		{Name: "a", Start: 10, End: 30, Parent: 1},
		{Name: "b", Start: 20, End: 50, Parent: 1},
		{Name: "c", Start: 60, End: 95, Parent: 1},
		{Name: "other", Start: 100, End: 120, Parent: -1},
	}
	want := []int64{20, 10, 20, 30, 35, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestAggregateAndTracer(t *testing.T) {
	tr := newTracer()
	for pass := 0; pass < 2; pass++ {
		tr.pass = int32(pass)
		root := tr.begin(rootPass)
		for i := 0; i < 3; i++ {
			tr.point = int32(i)
			p := tr.begin(rootPoint)
			tr.call("x", func() {})
			tr.call("y", func() { tr.call("z", func() {}) })
			tr.end(p)
			tr.point = -1
		}
		tr.end(root)
	}
	if tr.parent != -1 {
		t.Fatalf("current span after closing every span = %d, want -1", tr.parent)
	}
	by := aggregate(tr.spans)
	for pass := int32(0); pass < 2; pass++ {
		pc := by[pass]
		if pc.calls["x"] != 3 || pc.calls["y"] != 3 || pc.calls["z"] != 3 || pc.calls[rootPass] != 1 {
			t.Errorf("pass %d calls = %v", pass, pc.calls)
		}
	}
	for _, s := range tr.spans {
		if s.Name == "z" && tr.spans[s.Parent].Name != "y" {
			t.Errorf("z's parent is %s, want y", tr.spans[s.Parent].Name)
		}
		if inPoint := s.Name != rootPass; inPoint != (s.Point >= 0) {
			t.Errorf("span %s has point %d", s.Name, s.Point)
		}
	}

	at := newAllocTracer()
	var sink []byte
	at.call("alloc", func() { sink = make([]byte, 1<<20) })
	if len(at.spans) != 0 || at.allocs["alloc"] < 1<<20 {
		t.Errorf("alloc tracer: %d spans, %d bytes", len(at.spans), at.allocs["alloc"])
	}
	_ = sink
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
