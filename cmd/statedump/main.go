// statedump inspects persistent dormancy-state files — the compiler-state
// analogue of `nm` for objects.
//
//	statedump path/to/unit.state
//	statedump -v path/to/unit.state     per-slot records
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"statefulcc/internal/state"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "statedump:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("statedump", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print per-slot records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: statedump [-v] <file.state>...")
	}
	for _, path := range fs.Args() {
		st, err := state.Load(path)
		if err != nil {
			return err
		}
		if st == nil {
			return fmt.Errorf("%s: no such file", path)
		}
		size, _ := state.FileSize(st)
		fmt.Printf("%s:\n  unit          %s\n  pipeline hash %016x\n  functions     %d\n  records       %d\n  size          %d bytes\n",
			path, st.Unit, st.PipelineHash, len(st.Funcs), st.RecordCount(), size)
		if !*verbose {
			continue
		}
		names := make([]string, 0, len(st.Funcs))
		for name := range st.Funcs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fsRec := st.Funcs[name]
			fmt.Printf("  func %s:\n", name)
			for i, r := range fsRec.Slots {
				if !fsRec.Seen[i] {
					continue
				}
				verdict := "dormant"
				if r.Changed {
					verdict = "active"
				}
				fmt.Printf("    slot %2d: %-7s hash=%016x\n", i, verdict, r.InputHash)
			}
		}
	}
	return nil
}
