// Quickstart: the three layers of the library in one page.
//
//  1. Write and run an OPS5 production system.
//  2. Split independent work into tasks and run them on a SPAM/PSM-style
//     task-process pool (task-level parallelism).
//  3. Replay the measured cost logs on the virtual-time multiprocessor
//     to see the speedup a 14-processor Encore Multimax would give.
package main

import (
	"fmt"
	"log"
	"os"

	"spampsm/internal/machine"
	"spampsm/internal/ops5"
	"spampsm/internal/symtab"
	"spampsm/internal/tlp"
)

// A miniature classification system: score numbers as small/large.
const src = `
(literalize sample id value label)
(literalize summary small large)

(p classify-small
   { <s> (sample ^value <= 50 ^label none) }
  -->
   (modify <s> ^label small))

(p classify-large
   { <s> (sample ^value > 50 ^label none) }
  -->
   (modify <s> ^label large))

(p tally-small
   { <s> (sample ^label small) }
   { <t> (summary ^small <n>) }
  -->
   (remove <s>)
   (modify <t> ^small (compute <n> + 1)))

(p tally-large
   { <s> (sample ^label large) }
   { <t> (summary ^large <n>) }
  -->
   (remove <s>)
   (modify <t> ^large (compute <n> + 1)))
`

// buildTask returns a task classifying one batch of samples. Each task
// is a complete, independent OPS5 engine — that is SPAM/PSM's
// working-memory distribution.
func buildTask(id int, values []int64) *tlp.Task {
	return &tlp.Task{
		ID: fmt.Sprintf("batch-%d", id),
		Build: func() (*ops5.Engine, error) {
			prog, err := ops5.Parse(src)
			if err != nil {
				return nil, err
			}
			e, err := ops5.NewEngine(prog)
			if err != nil {
				return nil, err
			}
			if _, err := e.Assert("summary", map[string]symtab.Value{
				"small": symtab.Int(0), "large": symtab.Int(0),
			}); err != nil {
				return nil, err
			}
			for i, v := range values {
				if _, err := e.Assert("sample", map[string]symtab.Value{
					"id":    symtab.Int(int64(i)),
					"value": symtab.Int(v),
					"label": symtab.Sym("none"),
				}); err != nil {
					return nil, err
				}
			}
			return e, nil
		},
	}
}

func main() {
	// 1. One engine, run to quiescence.
	single := buildTask(0, []int64{10, 80, 42, 99})
	eng, err := single.Build()
	if err != nil {
		log.Fatal(err)
	}
	fired, err := eng.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	sum := eng.WMEs("summary")[0]
	fmt.Printf("single engine: %d firings, small=%v large=%v\n",
		fired, sum.Get("small"), sum.Get("large"))

	// 2. A queue of independent tasks on a task-process pool.
	var tasks []*tlp.Task
	for i := 0; i < 40; i++ {
		vals := make([]int64, 25)
		for j := range vals {
			vals[j] = int64((i*31 + j*17) % 100)
		}
		tasks = append(tasks, buildTask(i, vals))
	}
	pool := &tlp.Pool{Workers: 4}
	results, err := pool.Run(tasks)
	if err != nil {
		log.Fatal(err)
	}
	if err := tlp.FirstError(results); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task pool: %d tasks, %d total firings on %d workers\n",
		len(results), tlp.TotalFirings(results), pool.Workers)

	// 3. Replay the cost logs on the simulated multiprocessor.
	var mtasks []machine.Task
	for _, r := range results {
		mtasks = append(mtasks, machine.Task{ID: r.TaskID, Log: r.Log})
	}
	exp := machine.NewExperiment(mtasks)
	fmt.Println("simulated Encore Multimax speedups (task-level parallelism):")
	for _, p := range []int{1, 2, 4, 8, 14} {
		s := exp.Speedup(machine.Config{TaskProcs: p})
		fmt.Printf("  %2d task processes: %5.2fx\n", p, s)
	}
	os.Exit(0)
}
