package parallel

import (
	"zidian/internal/baav"
	"zidian/internal/core"
	"zidian/internal/kba"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

// RunKBAFetchAll executes a KBA plan with the strawman parallelization the
// paper describes and rejects in Section 7.1: fetch every relevant KV
// instance from the BaaV store first (full scans), flatten ∝ into ordinary
// hash joins, and only then compute. It answers correctly but forfeits the
// scan-free guarantee; the ablation benchmark contrasts it with the
// interleaved RunKBA.
func RunKBAFetchAll(info *core.PlanInfo, store *baav.Store, workers int) (*ra.Result, *Metrics, error) {
	return runPlan(info, &kbaExec{store: store, workers: workers, fetchAll: true})
}

// runExtendFetchAll replaces the interleaved ∝ with retrieve-then-join: the
// whole parameter instance is scanned into a per-worker hash index, the
// input is repartitioned by the join key, and the join runs locally.
func (e *kbaExec) runExtendFetchAll(n *kba.Extend) (*pval, error) {
	in, err := e.run(n.Input)
	if err != nil {
		return nil, err
	}
	kvSchema := e.store.Schema.ByName(n.KV)
	if kvSchema == nil {
		return nil, errUnknownKV(n.KV)
	}
	keyIdx, err := in.positions(n.KeyFrom)
	if err != nil {
		return nil, err
	}
	// Phase 1: fetch the entire instance, workers splitting storage nodes,
	// indexing blocks by key and placing each block on its hash owner (the
	// shuffle the strawman pays for the whole relation).
	nodes := e.store.Cluster.NodeCount()
	type chunk struct {
		key  string
		home int
		rows []relation.Tuple
	}
	chunks := make([][]chunk, e.workers)
	err = fanOut(e.workers, e.workers, func(w int) error {
		var local []chunk
		var data, fetch, moved int64
		for node := w; node < nodes; node += e.workers {
			err := e.store.ScanInstanceNodeT(e.kv(), node, n.KV, func(key relation.Tuple, blk *baav.Block, _ *baav.BlockStats) bool {
				rows := blk.Expand()
				e.trace.CountBlocks(1)
				data += int64(len(rows)*len(kvSchema.Val) + len(key))
				fetch += int64(key.SizeBytes())
				all := make([]int, len(key))
				for i := range all {
					all[i] = i
				}
				home := hashTuple(key, all, e.workers)
				if home != w {
					for _, r := range rows {
						moved += int64(r.SizeBytes())
					}
				}
				for _, r := range rows {
					fetch += int64(r.SizeBytes())
				}
				local = append(local, chunk{key: relation.KeyString(key), home: home, rows: rows})
				return true
			})
			if err != nil {
				return err
			}
		}
		e.c.data.Add(data)
		e.c.fetch.Add(fetch)
		e.c.shuffle.Add(moved)
		chunks[w] = local
		return nil
	})
	if err != nil {
		return nil, err
	}
	indexes := make([]map[string][]relation.Tuple, e.workers)
	for w := range indexes {
		indexes[w] = make(map[string][]relation.Tuple)
	}
	for _, cs := range chunks {
		for _, c := range cs {
			indexes[c.home][c.key] = append(indexes[c.home][c.key], c.rows...)
		}
	}

	// Phase 2: repartition the input by key and hash join locally.
	shuffled := repartition(in, keyIdx, &e.c.shuffle)
	outAttrs := append(append([]string{}, in.attrs...), qualify(n.Alias, kvSchema.Val)...)
	out := newPval(outAttrs, e.workers)
	err = fanOut(e.workers, e.workers, func(w int) error {
		var local []relation.Tuple
		for _, row := range shuffled.parts[w] {
			k := relation.KeyString(row.Project(keyIdx))
			for _, r := range indexes[w][k] {
				local = append(local, row.Concat(r))
			}
		}
		out.parts[w] = local
		return nil
	})
	return out, err
}
