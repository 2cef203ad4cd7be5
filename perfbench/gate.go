package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/server/client"
)

// gateDraws is the number of parameter draws per template the correctness
// gate checks, besides the two ends of the template's domain.
const gateDraws = 12

// gateCase is one statement with the answer the reference evaluator gives
// for it on the generated database.
type gateCase struct {
	s    stmt
	want *ra.Result
}

// gateCases builds the fixed gate sample: for every read template, the
// statements at both ends of its domain plus gateDraws seeded draws, each
// with its ra.Evaluate answer. The sample depends only on the seed.
func gateCases(e *env, seed int64) ([]gateCase, error) {
	g := newGenerator(e.spec, e.doms, seed, -2)
	var out []gateCase
	for ti, t := range e.spec.reads {
		d := e.doms[ti]
		var draws [][]any
		if len(d.pool) > 0 {
			draws = append(draws, []any{d.pool[0]}, []any{d.pool[len(d.pool)-1]})
		} else {
			lo, hi := make([]any, max(t.Verbs, 1)), make([]any, max(t.Verbs, 1))
			for i := range lo {
				lo[i], hi[i] = d.lo+i*t.Span, d.hi+i*t.Span
			}
			draws = append(draws, lo, hi)
		}
		for i := 0; i < gateDraws; i++ {
			draws = append(draws, g.args(ti))
		}
		for _, args := range draws {
			s := g.read(ti, args)
			q, err := ra.Parse(s.lit, e.w.DB)
			if err != nil {
				return nil, fmt.Errorf("oracle parse %q: %w", s.lit, err)
			}
			want, err := ra.Evaluate(q, e.w.DB)
			if err != nil {
				return nil, fmt.Errorf("oracle evaluate %q: %w", s.lit, err)
			}
			out = append(out, gateCase{s: s, want: want})
		}
	}
	return out, nil
}

// runGate sends every case over the wire and compares the answer with the
// oracle's. It returns the number of cases checked and the mismatches,
// one line each.
func runGate(addr string, cases []gateCase) (int, []string, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	var bad []string
	for _, gc := range cases {
		_, rows, _, err := c.Query(gc.s.sql, gc.s.params...)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", gc.s.lit, err))
			continue
		}
		if msg := compareRows(rows, gc.want); msg != "" {
			bad = append(bad, fmt.Sprintf("%s: %s", gc.s.lit, msg))
		}
	}
	return len(cases), bad, nil
}

// compareRows compares a wire answer with an oracle answer as row
// multisets; numbers compare with a small relative tolerance, because
// parallel aggregation sums in a different order. It returns "" on a match.
func compareRows(got [][]any, want *ra.Result) string {
	if len(got) != len(want.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want.Rows))
	}
	g := make([][]any, len(got))
	copy(g, got)
	w := make([][]any, len(want.Rows))
	for i, t := range want.Rows {
		w[i] = wireRow(t)
	}
	sortRows(g)
	sortRows(w)
	for i := range g {
		if !rowsEqual(g[i], w[i]) {
			return fmt.Sprintf("row %v, want %v", g[i], w[i])
		}
	}
	return ""
}

// wireRow renders an oracle tuple the way the wire protocol decodes it:
// numbers as float64, strings as strings, NULL as nil.
func wireRow(t relation.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch v.Kind {
		case relation.KindInt:
			out[i] = float64(v.Int)
		case relation.KindFloat:
			out[i] = v.Flt
		case relation.KindString:
			out[i] = v.Str
		}
	}
	return out
}

func rowKey(r []any) string {
	var b strings.Builder
	for _, v := range r {
		if f, ok := v.(float64); ok {
			fmt.Fprintf(&b, "%.6g|", f)
		} else {
			fmt.Fprintf(&b, "%v|", v)
		}
	}
	return b.String()
}

func sortRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool { return rowKey(rows[i]) < rowKey(rows[j]) })
}

func rowsEqual(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, oka := a[i].(float64)
		fb, okb := b[i].(float64)
		switch {
		case oka && okb:
			if math.Abs(fa-fb) > 1e-9*math.Max(1, math.Max(math.Abs(fa), math.Abs(fb))) {
				return false
			}
		case oka != okb:
			return false
		case a[i] != b[i]:
			return false
		}
	}
	return true
}

// verifyWrites reads back every id a read/write run wrote: an id still
// live must return its row, a deleted id must return none. It returns the
// number of ids checked and the failures.
func verifyWrites(addr string, spec *workloadSpec, gens []*generator) (int, []string, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	checked := 0
	var bad []string
	for wi, wt := range spec.writes {
		probe, err := probeSQL(wt.Name)
		if err != nil {
			return 0, nil, err
		}
		for _, g := range gens {
			for _, set := range []struct {
				ids  []int
				want bool
			}{{g.live[wi], true}, {g.deleted[wi], false}} {
				for _, id := range set.ids {
					checked++
					_, rows, _, err := c.Query(probe, id)
					if err != nil {
						bad = append(bad, fmt.Sprintf("%s id %d: %v", wt.Name, id, err))
						continue
					}
					if found := hasID(rows, id); found != set.want {
						bad = append(bad, fmt.Sprintf("%s id %d: present=%v, want %v", wt.Name, id, found, set.want))
					}
				}
			}
		}
	}
	return checked, bad, nil
}

func hasID(rows [][]any, id int) bool {
	for _, r := range rows {
		if len(r) > 0 && r[0] == float64(id) {
			return true
		}
	}
	return false
}
