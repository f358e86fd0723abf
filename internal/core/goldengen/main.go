// Command goldengen regenerates the Simulate-backend golden phase tables
// embedded in internal/core/golden_test.go. Run it from a tree whose cost
// model is known-good (e.g. before an intentional model change) and paste
// the output into the golden maps:
//
//	go run ./internal/core/goldengen            # 1-thread goldens
//	go run ./internal/core/goldengen -threads 4 # 4-thread goldens (equally exact: the scheduler is deterministic)
package main

import (
	"flag"
	"fmt"

	"upcbh/internal/core"
)

func main() {
	threads := flag.Int("threads", 1, "emulated UPC threads")
	n := flag.Int("n", 2048, "bodies")
	scenario := flag.String("scenario", "", "workload scenario (default plummer)")
	flag.Parse()

	for level := core.LevelBaseline; level < core.NumLevels; level++ {
		opts := core.DefaultOptions(*n, *threads, level)
		opts.Scenario = *scenario
		sim, err := core.New(opts)
		if err != nil {
			panic(err)
		}
		res, err := sim.Run()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%q: {", level)
		for p := core.Phase(0); p < core.NumPhases; p++ {
			if p > 0 {
				fmt.Printf(", ")
			}
			fmt.Printf("%.17g", res.Phases[p])
		}
		fmt.Printf("},\n")
	}
}
