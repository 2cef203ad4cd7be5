package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zidian/internal/relation"
)

// declared is BENCHMARK.json's metric and workload lists.
type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetrics checks that the program reports exactly the metrics
// and workloads BENCHMARK.json declares, with the declared units.
func TestDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestSmoke runs every workload at a tiny size, timed and traced, and
// checks that each run is correct and reports every declared metric with
// its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := loadDeclared(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 1, trace: traced, root: t.TempDir(),
				setups: 2, warmup: 200 * time.Millisecond, window: 250 * time.Millisecond, scale: 0.25}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
			if !traced && res.Metrics["qps"].Value <= 0 {
				t.Errorf("%s: qps %v", w, res.Metrics["qps"].Value)
			}
			if traced && res.Metrics["trace.stmts"].Value <= 0 {
				t.Errorf("%s: no traced statement", w)
			}
		}
	}
}

// TestGateFiresOnWrongAnswer plants a wrong oracle row and checks that the
// correctness gate reports it, and that the unchanged oracle passes.
func TestGateFiresOnWrongAnswer(t *testing.T) {
	spec, err := workloadByName("point")
	if err != nil {
		t.Fatal(err)
	}
	spec.scale = 0.25
	e, _, err := setUp(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	cases, err := gateCases(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n, bad, err := runGate(e.addr, cases); err != nil || n != len(cases) || len(bad) != 0 {
		t.Fatalf("clean gate: n=%d bad=%v err=%v", n, bad, err)
	}
	planted := -1
	for i, gc := range cases {
		if len(gc.want.Rows) > 0 {
			planted = i
			break
		}
	}
	if planted < 0 {
		t.Fatal("no case with rows to mutate")
	}
	row := append(relation.Tuple(nil), cases[planted].want.Rows[0]...)
	row[0] = relation.String("planted")
	cases[planted].want.Rows[0] = row
	_, bad, err := runGate(e.addr, cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 {
		t.Fatalf("gate reported %d mismatches for one planted wrong row: %v", len(bad), bad)
	}
	// A missing row must fire too.
	cases[planted].want.Rows = cases[planted].want.Rows[1:]
	if _, bad, _ := runGate(e.addr, cases); len(bad) != 1 {
		t.Fatalf("gate reported %d mismatches for one dropped row: %v", len(bad), bad)
	}
}

// TestWrongAnswerFailsRun checks that a wrong answer makes the whole run
// incorrect: it counts as failed statements and lowers ok_ratio.
func TestWrongAnswerFailsRun(t *testing.T) {
	cfg := config{workload: "point", seed: 2, seconds: 0.5, root: t.TempDir(), setups: 1,
		warmup: 100 * time.Millisecond, window: 250 * time.Millisecond, scale: 0.25,
		plant: func(cases []gateCase) {
			cases[0].want.Rows = append(cases[0].want.Rows, cases[0].want.Rows...)
		}}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The planted case fails in the gate before and after the timed run.
	if res.Correct || res.Failed != 2 || res.Metrics["ok_ratio"].Value >= 1 {
		t.Fatalf("planted wrong answer: correct=%v failed=%d ok_ratio=%v",
			res.Correct, res.Failed, res.Metrics["ok_ratio"].Value)
	}
}
