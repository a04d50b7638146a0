# Convenience entry points; CI runs the same commands (see
# .github/workflows/ci.yml). `make lint` is the invariant gate every PR
# must pass.

GO ?= go

.PHONY: all build test race lint vet cover benchmark-smoke clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The dedicated race sweep over the concurrent packages, the two
# lock-free ones every query goes through (semdist, fastmap: shared
# metric and mapper, hammered from 8 goroutines), the triple store
# (lock-free views read beside writers), the tree kernel and the
# facade's Save/Insert tests, mirroring the race-sweep CI job: halt on
# the first report, run everything twice — the tree kernel five times:
# a bulk build runs its right half on a goroutine of its own, over the
# point block the left half reads too, and moves its nodes in after.
race:
	GORACE=halt_on_error=1 $(GO) test -race -count=2 ./internal/core/ ./internal/cluster/... ./internal/serve/ ./internal/semdist/ ./internal/fastmap/ ./internal/triple/ .
	GORACE=halt_on_error=1 $(GO) test -race -count=5 ./internal/kdtree/

# The semtree invariant analyzers, driven through `go vet -vettool` so
# test files are covered and results are cached per package. For a
# quick uncached run without the vet driver:
#   go run ./cmd/semtree-vet ./...
lint: bin/semtree-vet
	$(GO) vet -vettool=$(abspath bin/semtree-vet) ./...

bin/semtree-vet: cmd/semtree-vet/*.go internal/analysis/*.go
	$(GO) build -o $@ ./cmd/semtree-vet

vet:
	$(GO) vet ./...

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# The repo benchmark (BENCHMARK.json) is a Go module of its own under
# benchmark/, so `go build/test ./...` at the root never compiles it.
# This target does: its vet and tests, then one smoke run of every
# workload with tracing off — an API break against the benchmark module
# fails here (and in the benchmark-smoke CI job), not at measurement
# time.
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	sh benchmark/run.sh --workload all --smoke --trace 0

clean:
	rm -rf bin coverage.out .bench_build benchmark/out
