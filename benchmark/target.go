package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"semtree"
	"semtree/internal/cluster"
	"semtree/internal/serve"
	"semtree/internal/triple"
)

// Query shapes shared by every workload.
const (
	knnK        = 10
	rangeRadius = 0.1
)

// workload is one configuration of the system under test plus the
// traffic driven at it. Every workload runs the same phases (see drive);
// what differs is the layers a query crosses. BENCHMARK.json records
// why each exists.
type workload struct {
	name string
	// triples is the corpus size before any write.
	triples int
	// partitions and capDiv set MaxPartitions and PartitionCapacity
	// (triples/capDiv; capDiv 0 leaves spilling off).
	partitions int
	capDiv     int
	// tcp puts the partitions on a loopback cluster.NewTCP() fabric.
	tcp bool
	// wire sends queries to a semtree-serve child process instead of an
	// in-process Searcher.
	wire bool
	// churn runs the paced writer beside the k-NN reader.
	churn bool
	// openRate is the fixed arrival rate of the open-loop phase and
	// openLimit the latency limit its goodput is counted against.
	openRate  float64
	openLimit time.Duration
}

var workloads = []workload{
	{
		name:    "knn-local",
		triples: 100000, partitions: 1,
		openRate: 3000, openLimit: 2 * time.Millisecond,
	},
	{
		name:    "knn-tcp9",
		triples: 100000, partitions: 9, capDiv: 8, tcp: true,
		openRate: 300, openLimit: 10 * time.Millisecond,
	},
	{
		name:    "serve",
		triples: 100000, partitions: 1, wire: true,
		openRate: 3000, openLimit: 2 * time.Millisecond,
	},
	{
		name:    "churn",
		triples: 50000, partitions: 5, capDiv: 5, churn: true,
		openRate: 3000, openLimit: 2 * time.Millisecond,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one built index and the fabric the benchmark made for it
// (nil when the index owns a private in-process fabric).
type instance struct {
	ix     *semtree.Index
	fabric cluster.Fabric
}

func (in *instance) close() {
	if in == nil {
		return
	}
	in.ix.Close()
	if in.fabric != nil {
		in.fabric.Close()
	}
}

// options are the Build/Load options of the workload for a corpus of n
// triples; a TCP workload gets a fresh fabric each call.
func (w workload) options(seed int64, n int) (semtree.Options, cluster.Fabric) {
	opts := semtree.Options{Seed: seed, MaxPartitions: w.partitions}
	if w.capDiv > 0 {
		opts.PartitionCapacity = n / w.capDiv
	}
	var fabric cluster.Fabric
	if w.tcp {
		fabric = cluster.NewTCP()
		opts.Fabric = fabric
	}
	return opts, fabric
}

// build fills a store with corpus and builds the workload's index: the
// in-process part of set-up.
func (w workload) build(seed int64, corpus []triple.Triple, prov triple.Provenance) (*instance, error) {
	store := triple.NewStore()
	store.AddAll(corpus, prov)
	opts, fabric := w.options(seed, len(corpus))
	ix, err := semtree.Build(store, opts)
	if err != nil {
		if fabric != nil {
			fabric.Close()
		}
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	return &instance{ix: ix, fabric: fabric}, nil
}

// target answers queries for the load phases and the correctness check.
type target interface {
	knn(ctx context.Context, q triple.Triple) (semtree.Result, error)
	within(ctx context.Context, q triple.Triple) (semtree.Result, error)
}

// localTarget queries an index in process.
type localTarget struct {
	knnS, rangeS *semtree.Searcher
}

func newLocalTarget(ix *semtree.Index, rangeOpts ...semtree.SearchOption) localTarget {
	rangeOpts = append(rangeOpts, semtree.WithMode(semtree.ModeRange), semtree.WithRadius(rangeRadius))
	return localTarget{
		knnS:   ix.Searcher(semtree.WithK(knnK)),
		rangeS: ix.Searcher(rangeOpts...),
	}
}

func (t localTarget) knn(ctx context.Context, q triple.Triple) (semtree.Result, error) {
	return t.knnS.Search(ctx, q)
}

func (t localTarget) within(ctx context.Context, q triple.Triple) (semtree.Result, error) {
	return t.rangeS.Search(ctx, q)
}

// wireTarget queries a semtree-serve front-end. The tenant's default K
// is knnK, which a range request cannot unset over the wire: a range
// answer is the knnK nearest matches inside the radius.
type wireTarget struct {
	cl *serve.Client
}

func (t wireTarget) knn(ctx context.Context, q triple.Triple) (semtree.Result, error) {
	return t.cl.Search(ctx, q)
}

func (t wireTarget) within(ctx context.Context, q triple.Triple) (semtree.Result, error) {
	return t.cl.Search(ctx, q, semtree.WithMode(semtree.ModeRange), semtree.WithRadius(rangeRadius))
}

// Tenant the child server is started with; admin so the snapshot frame
// is allowed.
const (
	childTenant = "bench:bench-token:admin"
	childToken  = "bench-token"
)

// child is a running semtree-serve process and a client dialled to it.
type child struct {
	cmd    *exec.Cmd
	client *serve.Client
	log    *bytes.Buffer
	exited <-chan struct{} // closed once the process has been waited for
}

// buildServeBinary compiles cmd/semtree-serve from the checkout into
// buildDir and returns the binary's path.
func buildServeBinary(ctx context.Context, repo, buildDir string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "semtree-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/semtree-serve")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/semtree-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// Files of the child, relative to its working directory. The triples
// file's name becomes the provenance of every stored triple, so it must
// not depend on where the run's temp directory happens to be.
const (
	childTriples  = "corpus.txt"
	childSnapshot = "serve.snap"
	childAddr     = "serve.addr"
)

// startChild starts `semtree-serve serve` in dir, over the triples file
// there, and returns once the first query has been answered: everything
// before that is the serve workload's set-up.
func startChild(ctx context.Context, bin, dir string, seed int64, probe triple.Triple) (*child, error) {
	addrFile := filepath.Join(dir, childAddr)
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	c := &child{log: new(bytes.Buffer)}
	c.cmd = exec.Command(bin, "serve",
		"-triples", childTriples, "-partitions", "1", "-k", strconv.Itoa(knnK),
		"-seed", strconv.FormatInt(seed, 10),
		"-addr", "127.0.0.1:0", "-addr-file", childAddr,
		"-snapshot", childSnapshot,
		"-tenant", childTenant)
	c.cmd.Dir = dir
	c.cmd.Stdout, c.cmd.Stderr = c.log, c.log
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start semtree-serve: %w", err)
	}
	exited := make(chan struct{})
	go func() {
		_ = c.cmd.Wait() // the exit status is in cmd.ProcessState
		close(exited)
	}()
	c.exited = exited

	addr, err := waitForAddr(ctx, addrFile, exited)
	if err == nil {
		c.client, err = serve.Dial(ctx, addr, childToken)
	}
	if err == nil {
		_, err = c.client.Search(ctx, probe)
	}
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("semtree-serve child: %w\n%s", err, c.log)
	}
	return c, nil
}

// waitForAddr polls for the address the child writes once it listens.
func waitForAddr(ctx context.Context, path string, exited <-chan struct{}) (string, error) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if b, err := os.ReadFile(path); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			return string(bytes.TrimSpace(b)), nil
		}
		select {
		case <-tick.C:
		case <-exited:
			return "", errors.New("exited before listening")
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// stop drains the child with SIGTERM, kills it if the drain hangs, and
// returns only after the process has ended.
func (c *child) stop() {
	if c == nil {
		return
	}
	if c.client != nil {
		c.client.Close()
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}
