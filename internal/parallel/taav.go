package parallel

import (
	"fmt"
	"time"

	"zidian/internal/kba"
	"zidian/internal/ra"
	"zidian/internal/relation"
	"zidian/internal/sql"
	"zidian/internal/taav"
)

// RunTaaV executes a query with the baseline SQL-over-NoSQL strategy in
// parallel: every relation the query mentions is fully retrieved from the
// storage layer (workers split the storage nodes), shipped to the SQL
// layer, and joined there with hash shuffles — no predicate pushdown, no
// index access, exactly the behaviour the paper attributes to TaaV systems.
func RunTaaV(q *ra.Query, store *taav.Store, workers int) (*ra.Result, *Metrics, error) {
	if q.NumParams > 0 {
		return nil, nil, fmt.Errorf("parallel: cannot run a template with %d unbound parameters (bind first)", q.NumParams)
	}
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	e := &kbaExec{workers: workers} // reuses shuffle/groupby machinery

	// Phase 1: retrieve. One scan per distinct relation; aliases share rows.
	scanned := make(map[string]*pval)
	nodes := store.Cluster.NodeCount()
	for _, atom := range q.Atoms {
		if _, ok := scanned[atom.Rel]; ok {
			continue
		}
		raw := newPval(atom.Schema.AttrNames(), workers)
		err := fanOut(workers, workers, func(w int) error {
			var local []relation.Tuple
			var gets, data, fetch int64
			for node := w; node < nodes; node += workers {
				err := store.ScanNode(node, atom.Rel, func(t relation.Tuple) bool {
					local = append(local, t)
					gets++
					data += int64(len(t))
					fetch += int64(t.SizeBytes())
					return true
				})
				if err != nil {
					return err
				}
			}
			e.c.gets.Add(gets)
			e.c.data.Add(data)
			e.c.fetch.Add(fetch)
			raw.parts[w] = local
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		scanned[atom.Rel] = raw
	}

	// Per-atom views with qualified attributes and local predicates applied
	// (in the SQL layer, after retrieval).
	atomVals := make([]*pval, len(q.Atoms))
	for i, atom := range q.Atoms {
		raw := scanned[atom.Rel]
		v := &pval{attrs: qualify(atom.Alias, atom.Schema.AttrNames()), parts: raw.parts}
		preds := localPreds(q, atom.Alias)
		if len(preds) > 0 {
			check, err := kba.CompilePreds(v.attrs, preds)
			if err != nil {
				return nil, nil, err
			}
			filtered := newPval(v.attrs, workers)
			if err := fanOut(workers, workers, func(w int) error {
				var local []relation.Tuple
				for _, row := range v.parts[w] {
					if check(row) {
						local = append(local, row)
					}
				}
				filtered.parts[w] = local
				return nil
			}); err != nil {
				return nil, nil, err
			}
			v = filtered
		}
		atomVals[i] = v
	}

	// Phase 2: parallel hash joins in atom order.
	acc := atomVals[0]
	eqDone := make(map[int]bool)
	fDone := make(map[int]bool)
	has := func(attrs []string, name string) bool {
		for _, a := range attrs {
			if a == name {
				return true
			}
		}
		return false
	}
	for i := 1; i < len(q.Atoms); i++ {
		next := atomVals[i]
		var lOn, rOn []string
		for ei, eq := range q.EqAttrs {
			if eqDone[ei] {
				continue
			}
			l, r := eq.L.String(), eq.R.String()
			if has(acc.attrs, r) && has(next.attrs, l) {
				l, r = r, l
			}
			if has(acc.attrs, l) && has(next.attrs, r) {
				lOn = append(lOn, l)
				rOn = append(rOn, r)
				eqDone[ei] = true
			}
		}
		joined, err := e.joinPvals(acc, next, lOn, rOn)
		if err != nil {
			return nil, nil, err
		}
		acc = joined
		// Newly bound cross-atom predicates.
		var preds []kba.Pred
		for ei, eq := range q.EqAttrs {
			if !eqDone[ei] && has(acc.attrs, eq.L.String()) && has(acc.attrs, eq.R.String()) {
				preds = append(preds, kba.Pred{Attr: eq.L.String(), Op: sql.OpEq, RAttr: eq.R.String()})
				eqDone[ei] = true
			}
		}
		for fi, f := range q.Filters {
			if fDone[fi] || f.RCol == nil {
				continue
			}
			if has(acc.attrs, f.Col.String()) && has(acc.attrs, f.RCol.String()) {
				preds = append(preds, kba.Pred{Attr: f.Col.String(), Op: f.Op, RAttr: f.RCol.String()})
				fDone[fi] = true
			}
		}
		if len(preds) > 0 {
			check, err := kba.CompilePreds(acc.attrs, preds)
			if err != nil {
				return nil, nil, err
			}
			filtered := newPval(acc.attrs, workers)
			if err := fanOut(workers, workers, func(w int) error {
				var local []relation.Tuple
				for _, row := range acc.parts[w] {
					if check(row) {
						local = append(local, row)
					}
				}
				filtered.parts[w] = local
				return nil
			}); err != nil {
				return nil, nil, err
			}
			acc = filtered
		}
	}

	// Phase 3: projection / aggregation tail.
	var outCols []string
	var keyCols []string
	seen := make(map[string]bool)
	for _, ref := range q.Proj {
		col := ref.String()
		outCols = append(outCols, col)
		if !seen[col] {
			seen[col] = true
			keyCols = append(keyCols, col)
		}
	}
	var final *pval
	if q.IsAggregate() {
		specs := make([]kba.AggSpec, len(q.Aggs))
		for i, a := range q.Aggs {
			spec := kba.AggSpec{Func: a.Func, Star: a.Star, Name: a.Name}
			if !a.Star {
				spec.Attr = a.Col.String()
			}
			specs[i] = spec
			outCols = append(outCols, a.Name)
		}
		v, err := e.runGroupBy(&kba.GroupBy{Input: &litPlan{acc}, Keys: keyCols, Aggs: specs})
		if err != nil {
			return nil, nil, err
		}
		final = v
	} else {
		v, err := e.runProject(&kba.Project{Input: &litPlan{acc}, Attrs: keyCols})
		if err != nil {
			return nil, nil, err
		}
		if q.Distinct {
			if v, err = e.runDistinct(&kba.Distinct{Input: &litPlan{v}}); err != nil {
				return nil, nil, err
			}
		}
		final = v
	}

	idx, err := final.positions(outCols)
	if err != nil {
		return nil, nil, err
	}
	res := &ra.Result{Cols: q.OutNames}
	for _, row := range final.rows() {
		res.Rows = append(res.Rows, row.Project(idx))
	}
	if err := ra.OrderAndLimit(res, q.OrderBy, q.Limit); err != nil {
		return nil, nil, err
	}
	return res, e.c.metrics(workers, time.Since(start)), nil
}

// joinPvals hash-joins two partitioned relations on the paired columns.
func (e *kbaExec) joinPvals(l, r *pval, lOn, rOn []string) (*pval, error) {
	if len(lOn) != len(rOn) {
		return nil, fmt.Errorf("parallel: join attribute lists differ")
	}
	return e.runJoin(&kba.Join{L: &litPlan{l}, R: &litPlan{r}, LOn: lOn, ROn: rOn})
}

// localPreds collects the per-atom predicates the SQL layer applies right
// after retrieval: constant equalities, IN lists, literal filters, and
// intra-atom equalities.
func localPreds(q *ra.Query, alias string) []kba.Pred {
	var preds []kba.Pred
	for _, ce := range q.EqConsts {
		if ce.Col.Alias == alias {
			v := ce.Val
			preds = append(preds, kba.Pred{Attr: ce.Col.String(), Op: sql.OpEq, Lit: &v})
		}
	}
	for _, in := range q.Ins {
		if in.Col.Alias == alias {
			preds = append(preds, kba.Pred{Attr: in.Col.String(), In: in.Vals})
		}
	}
	for _, f := range q.Filters {
		if f.Col.Alias != alias {
			continue
		}
		if f.RCol == nil {
			lit := *f.Lit
			preds = append(preds, kba.Pred{Attr: f.Col.String(), Op: f.Op, Lit: &lit})
		} else if f.RCol.Alias == alias {
			preds = append(preds, kba.Pred{Attr: f.Col.String(), Op: f.Op, RAttr: f.RCol.String()})
		}
	}
	for _, eq := range q.EqAttrs {
		if eq.L.Alias == alias && eq.R.Alias == alias {
			preds = append(preds, kba.Pred{Attr: eq.L.String(), Op: sql.OpEq, RAttr: eq.R.String()})
		}
	}
	return preds
}
