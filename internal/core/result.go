package core

import (
	"fmt"
	"sort"

	"zidian/internal/ra"
	"zidian/internal/relation"
)

// ToResult converts an executed plan output, rows over the attribute layout
// attrs, into the query's relational answer: output columns are selected by
// name, then ORDER BY and LIMIT are applied.
func (p *PlanInfo) ToResult(attrs []string, rows []relation.Tuple) (*ra.Result, error) {
	res := &ra.Result{Cols: p.Query.OutNames}
	if p.Empty {
		return res, nil
	}
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	idx := make([]int, len(p.OutCols))
	for i, c := range p.OutCols {
		j, ok := pos[c]
		if !ok {
			return nil, fmt.Errorf("core: plan output missing column %q (have %v)", c, attrs)
		}
		idx[i] = j
	}
	res.Rows = make([]relation.Tuple, len(rows))
	for i, row := range rows {
		res.Rows[i] = row.Project(idx)
	}
	if len(p.Query.OrderBy) > 0 {
		keyIdx := make([]int, len(p.Query.OrderBy))
		for i, k := range p.Query.OrderBy {
			keyIdx[i] = -1
			for j, n := range p.Query.OutNames {
				if n == k.Name {
					keyIdx[i] = j
					break
				}
			}
			if keyIdx[i] < 0 {
				return nil, fmt.Errorf("core: ORDER BY column %q missing", k.Name)
			}
		}
		keys := p.Query.OrderBy
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for i, k := range keys {
				c := relation.Compare(res.Rows[a][keyIdx[i]], res.Rows[b][keyIdx[i]])
				if c != 0 {
					if k.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}
	if p.Query.Limit >= 0 && len(res.Rows) > p.Query.Limit {
		res.Rows = res.Rows[:p.Query.Limit]
	}
	return res, nil
}
