package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/core"
)

// resultFile is the layout of testdata/golden_results.json and of the
// scale reference: point key (core.Point.String) to result or error.
type resultFile map[string]struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// expected maps a point key to the compact encoding of its result.
type expected map[string][]byte

func loadExpected(path string) (expected, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	want := make(expected, len(f))
	for k, v := range f {
		if v.Error != "" || v.Result == nil {
			return nil, fmt.Errorf("%s: %s holds no result", path, k)
		}
		if want[k], err = compactJSON(v.Result); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", path, k, err)
		}
	}
	return want, nil
}

// writeExpected records served rows as a result file, indented like the
// golden file.
func writeExpected(path string, rows []row) error {
	f := make(resultFile, len(rows))
	for _, r := range rows {
		v := f[r.Point.String()]
		v.Result = r.Result
		f[r.Point.String()] = v
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkRows verifies one sweep response against the points it was asked
// for: each point must appear exactly once, at its own seq, without an
// error, with the expected result and a result that satisfies the
// simulator invariants. It returns the number of points that failed and
// a description of the first few failures.
func checkRows(points []core.Point, want expected, body sweepBody) (int, []string) {
	var problems []string
	bad := make([]bool, len(points))
	seen := make([]bool, len(points))
	fail := func(i int, format string, args ...any) {
		if !bad[i] && len(problems) < 5 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
		bad[i] = true
	}
	for _, r := range body.Rows {
		i := r.Seq
		if i < 0 || i >= len(points) {
			problems = append(problems, fmt.Sprintf("row seq %d outside [0,%d)", i, len(points)))
			continue
		}
		key := points[i].String()
		if seen[i] {
			fail(i, "%s: streamed twice", key)
		}
		seen[i] = true
		if got := r.Point.String(); got != key {
			fail(i, "seq %d: point %s, want %s", i, got, key)
			continue
		}
		if r.Error != "" {
			fail(i, "%s: error %q", key, r.Error)
			continue
		}
		got, err := compactJSON(r.Result)
		if err != nil {
			fail(i, "%s: result: %v", key, err)
			continue
		}
		if w, ok := want[key]; !ok {
			fail(i, "%s: no expected result", key)
		} else if string(got) != string(w) {
			fail(i, "%s: result differs from the expected one", key)
		} else if err := checkInvariants(points[i], got); err != nil {
			fail(i, "%s: %v", key, err)
		}
	}
	for i := range points {
		if !seen[i] {
			fail(i, "%s: missing", points[i].String())
		}
	}
	failed := 0
	for _, b := range bad {
		if b {
			failed++
		}
	}
	if s := body.Summary; s == nil || !s.Done || s.Total != len(points) {
		problems = append(problems, fmt.Sprintf("summary %+v does not cover %d points", s, len(points)))
		failed = len(points)
	}
	return failed, problems
}

// checkInvariants tests the relations every simulated result must obey:
// the makespan splits exactly into compute, communication and idle time;
// fidelity is exp(log fidelity) and lies in [0,1]; and photonic links are
// traversed on multi-module devices and nowhere else.
func checkInvariants(pt core.Point, result []byte) error {
	var r struct {
		Total       float64 `json:"total_time_us"`
		Compute     float64 `json:"compute_time_us"`
		Comm        float64 `json:"comm_time_us"`
		Idle        float64 `json:"idle_time_us"`
		LogFidelity float64 `json:"log_fidelity"`
		Fidelity    float64 `json:"fidelity"`
		Links       int     `json:"link_transits"`
	}
	if err := json.Unmarshal(result, &r); err != nil {
		return err
	}
	if sum := r.Compute + r.Comm + r.Idle; math.Abs(sum-r.Total) > 1e-9*math.Max(1, r.Total) {
		return fmt.Errorf("compute+comm+idle = %v, total = %v", sum, r.Total)
	}
	if r.Fidelity < 0 || r.Fidelity > 1 {
		return fmt.Errorf("fidelity %v outside [0,1]", r.Fidelity)
	}
	if e := math.Exp(r.LogFidelity); math.Abs(e-r.Fidelity) > 1e-12+1e-9*e {
		return fmt.Errorf("fidelity %v, exp(log_fidelity) = %v", r.Fidelity, e)
	}
	if mod := strings.HasPrefix(strings.ToLower(pt.Topology), "mod"); mod != (r.Links > 0) {
		return fmt.Errorf("%d link transits on %s", r.Links, pt.Topology)
	}
	return nil
}
