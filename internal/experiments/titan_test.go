package experiments

import (
	"reflect"
	"testing"

	"repro/internal/models"
)

// TestTitanOnSharedRunner runs the TITAN study on one cached runner and
// checks every row against a fresh runner built under that row's link
// latency, so a calibration view that silently kept the base parameters
// would fail here. Makespan must also grow with link latency at every
// module count.
func TestTitanOnSharedRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("TITAN study in -short mode")
	}
	base := models.Default()
	study, err := RunTitanWith(NewCachedRunner(base, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(titanModules) * len(titanLatencies); len(study.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(study.Rows), want)
	}
	if fails := study.Failures(); len(fails) > 0 {
		t.Fatalf("failed points: %v", fails)
	}

	// One fresh runner per latency, sweeping that latency's points.
	byLatency := map[float64][]TitanRow{}
	for _, row := range study.Rows {
		byLatency[row.LinkLatencyUS] = append(byLatency[row.LinkLatencyUS], row)
	}
	for lat, rows := range byLatency {
		params := base
		params.PhotonicLinkLatency = lat
		pts := make([]Point, len(rows))
		for i, row := range rows {
			pts[i] = row.Outcome.Point
		}
		for i, want := range NewRunner(params).Sweep(pts) {
			if want.Err != nil {
				t.Fatalf("%s at %gµs: %v", pts[i], lat, want.Err)
			}
			if !reflect.DeepEqual(rows[i].Result(), want.Result) {
				t.Errorf("%s at %gµs: study result differs from a fresh runner under that latency", pts[i], lat)
			}
		}
	}

	last := map[int]TitanRow{}
	for _, row := range study.Rows {
		if prev, ok := last[row.Modules]; ok && row.Result().TotalTime <= prev.Result().TotalTime {
			t.Errorf("%d modules: makespan %g at %gµs does not exceed %g at %gµs",
				row.Modules, row.Result().TotalTime, row.LinkLatencyUS, prev.Result().TotalTime, prev.LinkLatencyUS)
		}
		last[row.Modules] = row
	}
}
