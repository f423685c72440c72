GO ?= go

.PHONY: check build vet lint lint-fix-check test race bench bench-ingest bench-mapv2 bench-soak bench-venues bench-repl fuzz-smoke

check: build vet lint lint-fix-check race ## full CI gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint: ## loclint analyzers + gofmt gate over the whole module (LOCLINT_DEBUG=timing for per-analyzer wall time)
	$(GO) build -o bin/loclint ./cmd/loclint
	bin/loclint ./...
	@fmt_out=$$(gofmt -l $$(find . -name '*.go' -not -path './vendor/*' -not -path '*/testdata/*')); \
	if [ -n "$$fmt_out" ]; then echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

lint-fix-check: ## validate //loclint: directive grammar (typoed allow names, missing mmapdecode reasons)
	$(GO) build -o bin/loclint ./cmd/loclint
	bin/loclint -check ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz-smoke: ## 10s smoke run of each fuzz target
	$(GO) test -run '^$$' -fuzz FuzzWiscanParse -fuzztime 10s -fuzzminimizetime 1s ./internal/wiscan/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s -fuzzminimizetime 1s ./internal/ingest/
	$(GO) test -run '^$$' -fuzz FuzzReportCodec -fuzztime 10s -fuzzminimizetime 1s ./internal/ingest/
	$(GO) test -run '^$$' -fuzz FuzzCompiledDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/trainingdb/
	$(GO) test -run '^$$' -fuzz FuzzPatchMatchesCompile -fuzztime 10s -fuzzminimizetime 1s ./internal/trainingdb/
	$(GO) test -run '^$$' -fuzz FuzzReplFrameDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/repl/
	$(GO) test -run '^$$' -fuzz FuzzLocateDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzTrainDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzNearest -fuzztime 10s -fuzzminimizetime 1s ./internal/locmap/

bench: ## hot-path localization benchmarks (see BENCH_hotpath.json)
	$(GO) test -run '^$$' -bench 'BenchmarkProbabilisticLargeMap$$|BenchmarkProbabilisticLocalize$$|BenchmarkHistogramLocalize$$|BenchmarkKNNSweep/k=3$$|BenchmarkBatchLocalize$$|BenchmarkServerLocate$$' -benchmem -benchtime=2s .

bench-ingest: ## live-ingestion pipeline benchmarks (see BENCH_ingest.json)
	$(GO) test -run '^$$' -bench 'BenchmarkIngestReport|BenchmarkSnapshotSwap|BenchmarkServerLocateUnderIngest|BenchmarkServerLocateBatch|BenchmarkServerLocate$$' -benchmem -benchtime=500x .

bench-mapv2: ## compiled-map v2 benchmarks: posting scans, top-k vs full sort (see BENCH_mapv2.json)
	$(GO) test -run '^$$' -bench 'BenchmarkMapV2' -benchmem -benchtime=20x -timeout 30m .

bench-soak: ## 60s mixed-traffic soak of the serving front end (see BENCH_soak.json)
	$(GO) run ./cmd/soak -duration 60s -qps 0 -out BENCH_soak.json

bench-venues: ## 1000-venue city soak under an LRU budget (see BENCH_venues.json)
	$(GO) run ./cmd/soak -venues 1000 -duration 30s -workers 8 -out BENCH_venues.json

bench-repl: ## trainer + 2-follower replication fleet soak over a 100k-entry map (see BENCH_repl.json)
	$(GO) run ./cmd/soak -followers 2 -duration 15s -workers 4 -preload 5000 \
		-map-entries 100000 -locate-qps 50 -out BENCH_repl.json
