package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"zidian"
	"zidian/internal/server"
	"zidian/internal/server/client"
	"zidian/internal/workload"
)

// The serving configuration: zidian-server's shipping flag defaults.
const (
	nodes       = 4
	workers     = 4
	maxInflight = 8
	queueDepth  = 256
	planCache   = 4096
)

// env is one running deployment: the generated dataset, the opened
// instance, and the server listening on loopback.
type env struct {
	spec *workloadSpec
	w    *workload.Workload
	inst *zidian.Instance
	srv  *server.Server
	addr string
	doms []domain
}

// setUp generates the dataset, opens the instance, starts the server,
// runs the workload's DDL over the wire and waits for the first answered
// read. It returns the deployment and the time all of that took.
func setUp(spec *workloadSpec, seed int64) (*env, time.Duration, error) {
	start := time.Now()
	inst, w, err := server.OpenWorkload("mot", spec.scale, seed, nodes, workers)
	if err != nil {
		return nil, 0, err
	}
	srv := server.New(inst, server.Config{
		MaxConcurrent: maxInflight,
		QueueDepth:    queueDepth,
		QueueTimeout:  time.Second,
		PlanCacheSize: planCache,
		LockRegime:    "mvcc",
	})
	e := &env{spec: spec, w: w, inst: inst, srv: srv}
	tcp, _, err := srv.Start("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, 0, err
	}
	e.addr = tcp
	if e.doms, err = domains(spec, w.DB); err != nil {
		e.close()
		return nil, 0, err
	}
	c, err := client.Dial(tcp)
	if err != nil {
		e.close()
		return nil, 0, err
	}
	defer c.Close()
	for _, ddl := range spec.setup {
		if _, err := c.Exec(ddl); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("setup %q: %w", ddl, err)
		}
	}
	g := newGenerator(spec, e.doms, seed, -1)
	first := g.read(0, g.args(0))
	if _, err := c.QueryLean(first.sql, first.params...); err != nil {
		e.close()
		return nil, 0, fmt.Errorf("first statement: %w", err)
	}
	took := time.Since(start)
	if spec.rtt > 0 {
		inst.Store().Cluster.SetServiceDelay(spec.rtt)
	}
	return e, took, nil
}

// close drains the server and stops its sweeper.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a drain timeout leaves nothing to report
}

// envelope records what a result was measured on.
type envelope struct {
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	CPUs         int     `json:"cpus"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Scale        float64 `json:"scale"`
	Nodes        int     `json:"nodes"`
	Workers      int     `json:"workers"`
	MaxInflight  int     `json:"max_inflight"`
	Regime       string  `json:"lock_regime"`
	Clients      int     `json:"clients"`
	Loop         string  `json:"loop"`
	Network      string  `json:"network"`
	Seconds      int     `json:"seconds"`
	Trace        bool    `json:"trace"`
}

func newEnvelope(root, commit string, spec *workloadSpec, seed int64, seconds int, trace bool) envelope {
	network := "none (in-process storage nodes, no emulated delay)"
	if spec.rtt > 0 {
		network = fmt.Sprintf("emulation: %v per-node service time per kv round (kv.Cluster.SetServiceDelay), not a measured network", spec.rtt)
	}
	return envelope{
		Commit:       commit,
		SourceDigest: sourceDigest(root),
		GoVersion:    runtime.Version(),
		CPUs:         runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workload:     spec.name,
		Seed:         seed,
		Scale:        spec.scale,
		Nodes:        nodes,
		Workers:      workers,
		MaxInflight:  maxInflight,
		Regime:       "mvcc",
		Clients:      clients,
		Loop:         "closed",
		Network:      network,
		Seconds:      seconds,
		Trace:        trace,
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies the code it measured even where no VCS data exists.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not count
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
