# Standard checks for the treemine repo. `make check` is the tier-1
# gate (vet + gofmt + build + full tests); `make race` re-runs the concurrent
# code — the forest-mining round pool, shard merging, the streaming pipeline
# (its reader/miner hand-off ten times over), the parallel distance-matrix
# fill, and the parallel parsimony search — under the race detector (the
# CI gate runs `make check race chaos`);
# `make chaos` runs the fault-injection and cancellation suite (worker
# panics, torn checkpoint writes, mid-stream iterator failures, signal
# semantics) under -race — see DESIGN.md §47 for the failpoint
# catalogue; `make fuzz` gives each fuzz target a 30-second budget
# beyond its checked-in seed corpus; `make bench` regenerates the paper
# figure benchmarks with allocation counts (see BENCH_1.json through
# BENCH_4.json for the recorded baselines); `make bench-dist` runs just
# the pairwise-distance-engine benchmarks (BENCH_3.json); `make
# bench-parsimony` runs just the bit-parallel Fitch engine and parallel
# search benchmarks (BENCH_4.json); `make bench-mine` runs the §48
# mining-core ablation suite plus its regression gate against
# BENCH_5.json (fails when the blocked path's same-process speedup over
# the in-tree seed leg drops >20% below the recorded ratio);
# `make smoke` builds the cousinserve daemon, starts it on the testdata
# index, runs one query of each kind, and requires a drained exit 0
# after SIGTERM (see DESIGN.md §49); `make bench-serve` regenerates the
# zero-copy serving recording (BENCH_6.json): decoded vs memory-mapped
# v4 open/query cost on the 100k-tree corpus (see DESIGN.md §50);
# `make bench-merge` runs the merge-path benchmarks plus their
# regression gate against BENCH_7.json (fails when mergeRuns' or
# FoldTranslated's same-process speedup over its in-tree reference drops
# >20% below the recorded ratio); `make bench-distmine` regenerates
# the distributed-mining recording (BENCH_7.json tables): plan/worker/
# merge over the 100k-tree corpus at 1/2/4 workers plus the
# out-of-core leg (see DESIGN.md §51); `make smoke-dist` runs the
# plan → workers → merge pipeline end to end over the checked-in
# fixture forest and requires the master to agree with the
# single-process run; `make chaos-dist` runs the coordinator
# fault-tolerance drills under -race (supervised retries, worker
# SIGKILLs, stall timeouts, straggler speculation, -allow-partial
# degradation, coordinator kill-and-resume — every drill must converge
# byte-identically; see DESIGN.md §52); `make loc` prints the non-test
# Go line counts of internal/core, internal/store, internal/serve and
# their total.

GO ?= go
FUZZTIME ?= 30s

.PHONY: check vet build test race chaos chaos-dist fuzz smoke smoke-dist bench bench-dist bench-parsimony bench-mine bench-serve bench-merge bench-distmine loc

check: vet build test

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core -run 'Parallel|Forest|Shard|Stream|Differential|LevelVec|MergeAssociation|FoldTranslated|DrainSorted'
	$(GO) test -race -count=10 -run 'Stream|Cancel|IteratorError' ./internal/core
	$(GO) test -race ./internal/cluster ./internal/kernel -run 'Differential|Reference|Matches'
	$(GO) test -race ./internal/parsimony -run 'WorkerCount|TiedSet|Search|Incremental'
	$(GO) test -race ./internal/serve -run 'Differential|Race|Cache|Drain|Hammer'
	$(GO) test -race ./internal/store -run 'Spill|Manifest|FoldShardFile|FoldManifest|Journal|VerifyShard'
	$(GO) test -race ./internal/coord
	$(GO) test -race ./cmd/cousinmine -run 'DistributedDifferential|DistGolden'

chaos:
	$(GO) test -race ./internal/faults ./internal/guard ./internal/sigctx
	$(GO) test -race ./internal/core -run 'Cancel|Panic|IteratorError|FaultInjection|LevelVec'
	$(GO) test -race ./internal/store -run 'Atomic|SpillWriteFailpoint|FoldShardFileTorn'
	$(GO) test -race ./internal/parsimony -run 'SearchCancelled|SearchClimb'
	$(GO) test -race ./internal/kernel -run 'FindCtx'
	$(GO) test -race ./cmd/cousinmine -run 'Checkpoint|FaultInjected|DistWorker'
	$(GO) test -race ./internal/serve -run 'Chaos|Fault'

chaos-dist:
	$(GO) test -race ./internal/coord
	$(GO) test -race ./cmd/cousinmine -run 'CoordChaos|DistCoord|DistResume|MergeAllowPartial|DistSupervisionFlag|ParseBytesOverflow' -v

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -run '^$$' ./internal/newick
	$(GO) test -fuzz=FuzzScanner -fuzztime=$(FUZZTIME) -run '^$$' ./internal/newick
	$(GO) test -fuzz=FuzzStoreRead -fuzztime=$(FUZZTIME) -run '^$$' ./internal/store
	$(GO) test -fuzz=FuzzQueryParse -fuzztime=$(FUZZTIME) -run '^$$' ./internal/serve

smoke:
	$(GO) test ./cmd/cousinserve -run 'DaemonSmoke' -v

smoke-dist:
	$(GO) test ./cmd/cousinmine -run 'DistributedEndToEnd|DistGolden' -v

bench:
	$(GO) test . -run xxx -bench 'Fig4|Fig5|Fig6MultiTree|Fig7|MineInterned' -benchmem -benchtime=2x

bench-dist:
	$(GO) test . -run xxx -bench 'TDistMatrix' -benchmem
	$(GO) test ./internal/updown -run xxx -bench 'Rank' -benchmem

bench-parsimony:
	$(GO) test ./internal/parsimony -run xxx -bench 'Fitch|ParsimonySearch' -benchmem

bench-mine:
	$(GO) test ./internal/core -run xxx -bench 'BenchmarkMineCore' -benchmem
	$(GO) test ./internal/core -run 'BenchMineCoreRegressionGate' -v

bench-serve:
	$(GO) run ./cmd/benchpaper -exp serveopen -maxtrees 100000

bench-merge:
	$(GO) test ./internal/store -run xxx -bench 'BenchmarkMergePath' -benchmem
	$(GO) test ./internal/store -run 'BenchMergeRegressionGate' -v

bench-distmine:
	$(GO) run ./cmd/benchpaper -exp distmine -maxtrees 100000

LOC_DIRS = internal/core internal/store internal/serve

loc:
	@total=0; for d in $(LOC_DIRS); do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
		printf '%-16s %6d\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-16s %6d\n' total $$total
