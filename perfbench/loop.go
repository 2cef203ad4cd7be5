package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zidian/internal/server"
	"zidian/internal/server/client"
)

// clients is the closed loop's connection count: one statement is in
// flight per wire connection, and the benchmark host has 2 CPUs.
const clients = 2

// outcome is what one statement of the loop produced.
type outcome struct {
	wire  time.Duration // client round trip; 0 when the statement did not go over the wire
	write bool
	err   error
	stats *server.QueryStats
}

// sendFunc issues one statement for client w on connection c.
type sendFunc func(w int, c *client.Client, s *stmt) outcome

// connError marks a failure of the connection itself, after which the
// client stops.
type connError struct{ error }

// wireErr wraps every error that is not a server answer as a connError.
func wireErr(err error) error {
	var se *client.ServerError
	if err == nil || errors.As(err, &se) {
		return err
	}
	return connError{err}
}

// sendWire is the plain timed path: one wire call, rows left undecoded.
func sendWire(_ int, c *client.Client, s *stmt) outcome {
	t0 := time.Now()
	if s.write {
		_, err := c.Exec(s.sql)
		return outcome{wire: time.Since(t0), write: true, err: wireErr(err)}
	}
	st, err := c.QueryLean(s.sql, s.params...)
	return outcome{wire: time.Since(t0), err: wireErr(err), stats: st}
}

// window is one sampling interval of a loop.
type window struct {
	dur   time.Duration
	stmts int64
	cpu   time.Duration
}

// loopResult aggregates one closed-loop phase.
type loopResult struct {
	elapsed         time.Duration
	reads, writes   []time.Duration // wire latencies
	attempted       int64
	failed          int64
	admissionErrors int64
	statementErrors int64
	answered        int64 // reads answered over the wire
	cacheHits       int64
	scanFree        int64
	windows         []window
	firstErrs       []string
}

// cpuTime is the process's user+system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLoop drives the closed loop: each client sends its next statement as
// soon as the previous one answers, until d has passed. A sampler records
// statement counts and process CPU once per windowLen.
func runLoop(addr string, gens []*generator, d, windowLen time.Duration, send sendFunc) (*loopResult, error) {
	conns := make([]*client.Client, len(gens))
	for i := range conns {
		c, err := client.Dial(addr)
		if err != nil {
			for _, p := range conns[:i] {
				p.Close()
			}
			return nil, fmt.Errorf("dial: %w", err)
		}
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	parts := make([]loopResult, len(gens))
	var done atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan []window)
	start := time.Now()
	deadline := start.Add(d)
	go func() {
		tick := time.NewTicker(windowLen)
		defer tick.Stop()
		var ws []window
		lastT, lastN, lastCPU := start, int64(0), cpuTime()
		for {
			select {
			case <-stop:
				sampled <- ws
				return
			case now := <-tick.C:
				n, cpu := done.Load(), cpuTime()
				ws = append(ws, window{dur: now.Sub(lastT), stmts: n - lastN, cpu: cpu - lastCPU})
				lastT, lastN, lastCPU = now, n, cpu
			}
		}
	}()

	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &parts[i]
			for time.Now().Before(deadline) {
				s := gens[i].next()
				o := send(i, conns[i], &s)
				done.Add(1)
				res.attempted++
				if o.err != nil {
					res.failed++
					var se *client.ServerError
					if errors.As(o.err, &se) && se.Retryable() {
						res.admissionErrors++
					} else {
						res.statementErrors++
					}
					if len(res.firstErrs) < 3 {
						res.firstErrs = append(res.firstErrs, fmt.Sprintf("%s: %v", s.lit, o.err))
					}
					var ce connError
					if errors.As(o.err, &ce) {
						return // the connection is gone
					}
					continue
				}
				if o.wire == 0 {
					continue
				}
				if o.write {
					res.writes = append(res.writes, o.wire)
					continue
				}
				res.reads = append(res.reads, o.wire)
				if o.stats != nil {
					res.answered++
					if o.stats.CacheHit {
						res.cacheHits++
					}
					if o.stats.ScanFree {
						res.scanFree++
					}
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	out := &loopResult{elapsed: elapsed, windows: <-sampled}
	for _, p := range parts {
		out.reads = append(out.reads, p.reads...)
		out.writes = append(out.writes, p.writes...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.admissionErrors += p.admissionErrors
		out.statementErrors += p.statementErrors
		out.answered += p.answered
		out.cacheHits += p.cacheHits
		out.scanFree += p.scanFree
		out.firstErrs = append(out.firstErrs, p.firstErrs...)
	}
	return out, nil
}

// qps is the median over the loop's full windows of statements per second.
func (r *loopResult) qps() float64 {
	var v []float64
	for _, w := range r.windows {
		v = append(v, float64(w.stmts)/w.dur.Seconds())
	}
	if len(v) == 0 && r.elapsed > 0 {
		return float64(r.attempted) / r.elapsed.Seconds()
	}
	return median(v)
}

// cpuPerStmt is the median over the loop's windows of process CPU
// microseconds per statement.
func (r *loopResult) cpuPerStmt() float64 {
	var v []float64
	for _, w := range r.windows {
		if w.stmts > 0 {
			v = append(v, float64(w.cpu.Nanoseconds())/1e3/float64(w.stmts))
		}
	}
	return median(v)
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileUS is the nearest-rank q-quantile of a latency sample in
// microseconds; 0 for an empty sample.
func quantileUS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i].Nanoseconds()) / 1e3
}

// windowSummary renders the spread of the per-window rates.
func (r *loopResult) windowSummary() string {
	var q []float64
	for _, w := range r.windows {
		q = append(q, float64(w.stmts)/w.dur.Seconds())
	}
	sort.Float64s(q)
	if len(q) == 0 {
		return "no full window"
	}
	return fmt.Sprintf("%d windows of %v, qps min %.0f median %.0f max %.0f, cpu/stmt median %.1fus",
		len(q), r.windows[0].dur.Round(time.Millisecond), q[0], median(q), q[len(q)-1], r.cpuPerStmt())
}
