// Command experiments regenerates the paper's evaluation: Table I,
// Table II, and Figures 6, 7 and 8, plus beyond-the-paper studies of
// device scaling, surface-code QEC, compiler policies and TITAN-scale
// multi-module devices. With no selection flags it runs everything. With
// -csv DIR it additionally writes the raw figure data as CSV files.
//
// Every study runs on one shared toolflow with a content-addressed
// outcome cache, so design points that recur across figures (Figure 8's
// grid contains Figure 6 and the L6 half of Figure 7) are computed once;
// the TITAN study runs its link latencies on calibration views of it.
// Failed design points render as NaN in the affected series; they are
// summarized on stderr and make the command exit nonzero.
//
// Usage:
//
//	experiments [-table1] [-table2] [-fig6] [-fig7] [-fig8] [-scaling] [-qec] [-policies] [-titan] [-csv DIR]
//	experiments -grammar   # print the paper grid as a sweep-grammar request
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/sweep"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		table1   = flag.Bool("table1", false, "render Table I (shuttling operation times)")
		table2   = flag.Bool("table2", false, "render Table II (application characteristics)")
		fig6     = flag.Bool("fig6", false, "run the Figure 6 trap-sizing study")
		fig7     = flag.Bool("fig7", false, "run the Figure 7 topology study")
		fig8     = flag.Bool("fig8", false, "run the Figure 8 microarchitecture study")
		scaling  = flag.Bool("scaling", false, "run the beyond-paper device scaling study")
		qec      = flag.Bool("qec", false, "run the beyond-paper surface-code QEC study")
		policies = flag.Bool("policies", false, "run the beyond-paper compiler policy comparison")
		titan    = flag.Bool("titan", false, "run the TITAN-scale multi-module study (module count x link latency)")
		grammar  = flag.Bool("grammar", false, "print the full paper grid as a sweep-grammar request body for POST /v1/sweep and exit")
		csvDir   = flag.String("csv", "", "directory to write raw figure data as CSV")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}
	if *grammar {
		// The grammar expands to exactly the golden determinism grid (see
		// TestPaperSpaceMatchesGoldenGrid), so piping this body to a qccdd
		// instance reproduces the whole evaluation server-side.
		body := struct {
			Space sweep.Space `json:"space"`
		}{Space: experiments.PaperSpace()}
		out, err := json.MarshalIndent(body, "", "  ")
		if err != nil {
			log.Fatalf("grammar: %v", err)
		}
		fmt.Println(string(out))
		return 0
	}
	all := !*table1 && !*table2 && !*fig6 && !*fig7 && !*fig8 && !*scaling && !*qec && !*policies && !*titan
	params := models.Default()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatalf("csv dir: %v", err)
		}
	}
	runner := experiments.NewCachedRunner(params, 0)

	if all || *table1 {
		fmt.Println(experiments.Table1(params))
	}
	if all || *table2 {
		t2, err := experiments.Table2()
		if err != nil {
			log.Fatalf("table2: %v", err)
		}
		fmt.Println(t2)
	}
	failed := 0
	if all || *fig6 {
		failed += run("fig6", *csvDir, func() (artifact, error) { return experiments.RunFig6With(runner) })
	}
	if all || *fig7 {
		failed += run("fig7", *csvDir, func() (artifact, error) { return experiments.RunFig7With(runner) })
	}
	if all || *fig8 {
		failed += run("fig8", *csvDir, func() (artifact, error) { return experiments.RunFig8With(runner) })
	}
	if all || *scaling {
		failed += run("scaling", *csvDir, func() (artifact, error) { return experiments.RunScalingWith(runner) })
	}
	if all || *qec {
		failed += run("qec", *csvDir, func() (artifact, error) { return experiments.RunQECWith(runner) })
	}
	if all || *policies {
		failed += run("policies", *csvDir, func() (artifact, error) { return experiments.RunPolicyComparisonWith(runner) })
	}
	if all || *titan {
		failed += run("titan", *csvDir, func() (artifact, error) { return experiments.RunTitanWith(runner) })
	}
	if st := runner.CacheStats(); st.Misses > 0 {
		// Misses includes retries of failed points (errors are never
		// stored), so it only equals the unique point count on clean runs.
		fmt.Printf("[toolflow cache: %d design points computed, %d reused]\n",
			st.Misses, st.Hits+st.Shared)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d design points failed\n", failed)
		return 1
	}
	return 0
}

// artifact is the common shape of every generated study.
type artifact interface {
	Render() string
	WriteCSV(io.Writer) error
	Failures() []experiments.Outcome
}

// run renders one study, writes its CSV, summarizes failed design points
// on stderr, and returns the failure count.
func run(name, csvDir string, f func() (artifact, error)) int {
	start := time.Now()
	a, err := f()
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Println(a.Render())
	fmt.Printf("[%s completed in %.1fs]\n\n", name, time.Since(start).Seconds())
	fails := a.Failures()
	if len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %s: %d design points failed (rendered as NaN):\n", name, len(fails))
		const show = 5
		for i, o := range fails {
			if i == show {
				fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(fails)-show)
				break
			}
			fmt.Fprintf(os.Stderr, "  %s: %v\n", o.Point, o.Err)
		}
	}
	if csvDir == "" {
		return len(fails)
	}
	path := filepath.Join(csvDir, name+".csv")
	file, err := os.Create(path)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	defer file.Close()
	if err := a.WriteCSV(file); err != nil {
		log.Fatalf("%s csv: %v", name, err)
	}
	fmt.Printf("[wrote %s]\n\n", path)
	return len(fails)
}
