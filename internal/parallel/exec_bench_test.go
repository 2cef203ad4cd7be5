package parallel

import (
	"fmt"
	"testing"

	"zidian/internal/kba"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
)

// benchPlan plans src over the shared fixture with nPS PARTSUPP rows.
func benchPlan(b *testing.B, nPS int, src string) func(workers int) error {
	b.Helper()
	db, _, bv, c := fixture(b, 21, 100, nPS)
	info, err := c.Plan(ra.MustParse(src, db))
	if err != nil {
		b.Fatal(err)
	}
	return func(workers int) error {
		_, _, err := RunKBA(info, bv, workers, nil)
		return err
	}
}

// BenchmarkRunKBAPoint is the executor layer of a bounded point lookup: one
// constant key, one batched block fetch of 10 rows, a projection of them
// (40 PARTSUPP rows give suppliers 0-3 a block of 10 rows each).
func BenchmarkRunKBAPoint(b *testing.B) {
	run := benchPlan(b, 40, "select PS.partkey, PS.supplycost from PARTSUPP PS where PS.suppkey = 2")
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := run(workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunKBAScan is the executor layer of a filtered scan at several
// instance sizes: node scans, then select and project over every row.
func BenchmarkRunKBAScan(b *testing.B) {
	for _, rows := range []int{500, 2000, 8000} {
		run := benchPlan(b, rows, "select PS.partkey from PARTSUPP PS where PS.supplycost >= 10")
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", rows, workers), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if err := run(workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFanOutCrossover times a scan's CPU-only tail (select, then
// project) over an in-memory input of the given size, inline against split
// over every available goroutine: the difference is what a fan-out costs
// when no CPU is idle, the figure inlineRows is weighed against.
func BenchmarkFanOutCrossover(b *testing.B) {
	lit := relation.Int(50)
	for _, rows := range []int{64, 128, 256, 1024, 4096} {
		in := newPval([]string{"k", "v"}, 4)
		for i := 0; i < rows; i++ {
			in.parts[i%4] = append(in.parts[i%4], relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 100))})
		}
		plan := &kba.Project{Attrs: []string{"k"}, Input: &kba.Select{Input: &litPlan{in},
			Preds: []kba.Pred{{Attr: "v", Op: sql.OpLt, Lit: &lit}}}}
		for _, sched := range []struct {
			name    string
			minRows int
		}{{"inline", rows + 1}, {"fanout", 1}} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, sched.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					e := &kbaExec{workers: 4, minRows: sched.minRows}
					if _, err := e.run(plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
