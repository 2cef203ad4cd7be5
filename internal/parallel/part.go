// Package parallel implements module M3 of Zidian: parallel execution of
// KBA plans with the interleaved strategy of Section 7 (repartition
// intermediate keyed blocks to the owners of the target KV keys, then fetch
// only the needed blocks), plus the parallel TaaV baseline (retrieve-all,
// then parallel hash joins) that the paper compares against. Communication
// between workers is accounted explicitly.
//
// The worker count is the number of partitions every intermediate relation
// is hashed into — the unit the paper's communication model counts — not a
// goroutine count. The KBA executor sizes each operator's fan-out by what it
// does: a scan waits on storage and takes one goroutine per storage node
// (runScan), while a CPU-only operator runs inline on a small input and
// otherwise splits its partitions over a few goroutines (goroutines). The
// layout, and with it every answer, row order and shuffle count, does not
// depend on the schedule.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"zidian/internal/relation"
)

// inlineRows is the largest input a CPU-only operator runs inline on the
// calling goroutine; above it the operator takes one goroutine per
// inlineRows rows begun (see goroutines). BenchmarkFanOutCrossover puts the
// start and join of the extra goroutines at about 4µs on a 2-CPU x86-64
// host, a third of the 13µs a select and project spend on 128 rows, and
// splitting only breaks even there beyond a few thousand rows. Splitting
// still pays for statements that wait on storage: they run operators of a
// few hundred rows while a CPU idles, and an inline limit of 1,024 rows
// cost the range_rtt benchmark workload about 4% of its qps. Bounded point
// operators see at most a couple of hundred rows, nearly all under 128, so
// they run inline.
const inlineRows = 128

// pval is a partitioned intermediate relation: flat rows over a fixed
// attribute layout, split across workers.
type pval struct {
	attrs []string
	parts [][]relation.Tuple
}

func newPval(attrs []string, workers int) *pval {
	return &pval{attrs: attrs, parts: make([][]relation.Tuple, workers)}
}

func (v *pval) workers() int { return len(v.parts) }

// len returns the row count over all partitions.
func (v *pval) len() int {
	n := 0
	for _, p := range v.parts {
		n += len(p)
	}
	return n
}

// rows gathers all partitions into one slice.
func (v *pval) rows() []relation.Tuple {
	out := make([]relation.Tuple, 0, v.len())
	for _, p := range v.parts {
		out = append(out, p...)
	}
	return out
}

// positions maps attribute names to column indexes; a name that occurs
// twice resolves to its last column. Layouts are a handful of attributes
// wide, so a backward linear search beats building a map.
func (v *pval) positions(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		j := len(v.attrs) - 1
		for j >= 0 && v.attrs[j] != n {
			j--
		}
		if j < 0 {
			return nil, fmt.Errorf("parallel: attribute %q not in %v", n, v.attrs)
		}
		out[i] = j
	}
	return out, nil
}

// FNV-1a parameters (64-bit), as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashTuple routes a projected key to a worker: FNV-1a over the key
// columns' order-preserving encodings, built in a stack buffer so routing a
// row does not allocate (keys longer than the buffer spill to the heap).
func hashTuple(t relation.Tuple, idx []int, workers int) int {
	var buf [128]byte
	b := buf[:0]
	for _, i := range idx {
		b = relation.AppendValue(b, t[i])
	}
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return int(h % uint64(workers))
}

// goroutines sizes a CPU-only operator body over rows input rows split
// into parts partitions: none (run inline) up to minRows rows, then one
// goroutine per minRows rows begun, capped by the partitions and
// GOMAXPROCS. minRows 0 gives every partition its own goroutine.
func goroutines(parts, rows, minRows int) int {
	if minRows <= 0 {
		return parts
	}
	if rows <= minRows {
		return 0
	}
	return min(parts, runtime.GOMAXPROCS(0), (rows+minRows-1)/minRows)
}

// fanOut runs fn(i) for every i in [0, n) on g <= n goroutines, goroutine
// j taking i = j, j+g, j+2g, ...; the caller runs the first stride. With g
// below two everything runs inline. It returns the error of the lowest i
// that failed.
func fanOut(n, g int, fn func(i int) error) error {
	if g < 2 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	stride := func(j int) {
		for i := j; i < n; i += g {
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(g - 1)
	for j := 1; j < g; j++ {
		go func(j int) {
			defer wg.Done()
			stride(j)
		}(j)
	}
	stride(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// repartition redistributes rows so that rows agreeing on the key columns
// land on the same worker. Bytes of rows that change workers are added to
// shuffle. Empty keyIdx sends everything to worker 0 (a gather). Each
// destination receives its rows source by source, in source order.
//
// Routing runs inline on the calling goroutine at every size: on a 2-CPU
// x86-64 host, splitting it over one goroutine per source partition with
// per-source buckets was slower from 64 to 16,384 rows of 4 partitions
// (median 7 vs 10µs at 64 rows, 256 vs 389µs at 4,096), since hashing a
// row costs less than copying it through a bucket.
func repartition(v *pval, keyIdx []int, shuffle *atomic.Int64) *pval {
	workers := v.workers()
	out := newPval(v.attrs, workers)
	var moved int64
	for src, part := range v.parts {
		for _, row := range part {
			dst := 0
			if len(keyIdx) > 0 {
				dst = hashTuple(row, keyIdx, workers)
			}
			out.parts[dst] = append(out.parts[dst], row)
			if dst != src {
				moved += int64(row.SizeBytes())
			}
		}
	}
	shuffle.Add(moved)
	return out
}
