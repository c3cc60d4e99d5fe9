// experiments regenerates every table and figure of the evaluation
// (DESIGN.md §5) and prints them as text or markdown. The EXPERIMENTS.md in
// the repository root is produced by:
//
//	go run ./cmd/experiments -md > EXPERIMENTS.md.fragment
//
//	experiments                 run everything (standard suite)
//	experiments -exp t2,f1      selected experiments
//	experiments -quick          two-project suite, short histories
//	experiments -commits 30     longer edit histories
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"statefulcc/internal/bench"
	"statefulcc/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exps := fs.String("exp", "all", "comma-separated experiment ids (t1,f1,f2,t2,f3,f4,t3,t4,f5,t5,f7,t6) or 'all'")
	quick := fs.Bool("quick", false, "small suite and short histories (fast)")
	commits := fs.Int("commits", 20, "simulated commits per project")
	repeats := fs.Int("repeats", 1, "timing repeats per history (min kept)")
	md := fs.Bool("md", false, "emit markdown instead of text tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	suite := workload.StandardSuite()
	cfg := bench.Config{Commits: *commits, Repeats: *repeats}
	if *quick {
		suite = workload.QuickSuite()
		if cfg.Commits > 6 {
			cfg.Commits = 6
		}
	}
	// The sweep/ablation experiments use one mid-sized project.
	sweepProject := suite[len(suite)/2]

	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(*exps), ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]

	type experiment struct {
		id  string
		run func() (*bench.Table, error)
	}
	list := []experiment{
		{"t1", func() (*bench.Table, error) { return bench.Table1Characteristics(suite) }},
		{"f1", func() (*bench.Table, error) { return bench.Figure1DormantFraction(suite, cfg) }},
		{"f2", func() (*bench.Table, error) { return bench.Figure2DormancyPersistence(suite, cfg) }},
		{"t2", func() (*bench.Table, error) { return bench.Table2EndToEnd(suite, cfg) }},
		{"f3", func() (*bench.Table, error) { return bench.Figure3PerFileCDF(suite, cfg) }},
		{"f4", func() (*bench.Table, error) { return bench.Figure4EditSize(sweepProject, cfg) }},
		{"t3", func() (*bench.Table, error) { return bench.Table3StateOverhead(suite, cfg) }},
		{"t4", func() (*bench.Table, error) { return bench.Table4Correctness(suite, cfg) }},
		{"f5", func() (*bench.Table, error) { return bench.Figure5PerPassSavings(suite, cfg) }},
		{"t5", func() (*bench.Table, error) { return bench.Table5VsFullCache(suite, cfg) }},
		{"f7", func() (*bench.Table, error) { return bench.Figure7Parallelism(sweepProject, cfg) }},
		{"t6", func() (*bench.Table, error) { return bench.Table6PipelineLength(sweepProject, cfg) }},
	}

	for _, e := range list {
		if !all && !want[e.id] {
			continue
		}
		start := time.Now()
		tab, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if *md {
			fmt.Println(tab.Markdown())
		} else {
			fmt.Println(tab)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", e.id, time.Since(start).Seconds())
	}
	return nil
}
