# Development targets. Everything runs with src/ on the path; numpy is
# the one third-party runtime dependency (pytest + pytest-benchmark for
# the suites).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-all lint bench-quick bench-fabric bench-delay \
	bench-explore bench-atlas bench-soak bench-snapshot bench-diff \
	docs-check api-docs campaign explore-frontier atlas-quick atlas \
	atlas-shard-smoke soak-smoke examples clean

## tier-1: docs consistency, the invariant linter, then the fast test
## suite (the bar every change must clear). The cheap static gates run
## first so a stale README section or an undigested oracle edit fails
## fast, before the two-minute suite. Tests marked `exhaustive` (full
## small-scope sweeps, the explorer tightness matrix) are skipped
## here; `make test-all` runs everything.
test: docs-check lint
	$(PYTHON) -m pytest -x -q

## the whole suite including the exhaustive tier
test-all: docs-check lint
	$(PYTHON) -m pytest -q --exhaustive

## the AST-based invariant linter: determinism, oracle freezing, and
## cache-schema discipline over the package, tests, benchmarks, and
## tooling (see docs/ARCHITECTURE.md "Static analysis").
lint:
	$(PYTHON) -m tools.reprolint src tests benchmarks tools

## the fast benchmark slice: Table 1 regeneration + campaign throughput
bench-quick:
	$(PYTHON) -m pytest benchmarks/test_bench_table1.py \
	    benchmarks/test_bench_campaign.py -q -s

## message-fabric engine throughput vs the pre-fabric reference loop
bench-fabric:
	$(PYTHON) -m pytest benchmarks/test_bench_fabric.py -q -s

## delay models on the kernel vs the legacy per-message tick loop
bench-delay:
	$(PYTHON) -m pytest benchmarks/test_bench_delay_kernel.py -q -s

## strategy-explorer pruning: measured reduction vs the raw tree
bench-explore:
	$(PYTHON) -m pytest benchmarks/test_bench_explore.py -q -s

## atlas evidence fusion + streaming-log throughput
bench-atlas:
	$(PYTHON) -m pytest benchmarks/test_bench_atlas.py -q -s

## soak-farm throughput: batched kernels + streamed log vs solo replays
bench-soak:
	$(PYTHON) -m pytest benchmarks/test_bench_soak.py -q -s

## the reference-comparison benches, with machine-readable
## BENCH_<topic>.json snapshots written to bench-snapshots/
bench-snapshot:
	BENCH_SNAPSHOT_DIR=bench-snapshots $(PYTHON) -m pytest \
	    benchmarks/test_bench_fabric.py \
	    benchmarks/test_bench_delay_kernel.py \
	    benchmarks/test_bench_campaign.py \
	    benchmarks/test_bench_soak.py \
	    benchmarks/test_bench_scaling.py \
	    benchmarks/test_bench_atlas.py \
	    benchmarks/test_bench_explore.py -q -s

## diff two (or more) BENCH_<topic>.json snapshot directories, oldest
## first, and fail on >MAX_REGRESS% ops/s regression:
##   make bench-diff BASE=archived-snapshots NEW=bench-snapshots
BASE ?= bench-snapshots
NEW ?= bench-snapshots
MAX_REGRESS ?= 25
bench-diff:
	$(PYTHON) tools/bench_diff.py $(BASE) $(NEW) \
	    --max-regress $(MAX_REGRESS)

## README sections + intra-repo doc links + API.md staleness
docs-check:
	$(PYTHON) tools/docs_check.py
	$(PYTHON) tools/gen_api_docs.py --check

## regenerate docs/API.md from the public docstrings
api-docs:
	$(PYTHON) tools/gen_api_docs.py

## run the quick Table 1 campaign on all local cores
campaign:
	$(PYTHON) -m repro campaign --workers 4 --resume

## machine-check the Table 1 tightness frontier via the explorer
explore-frontier:
	$(PYTHON) -m repro campaign --explore --workers 4 --resume

## the small-lattice atlas sweep (what CI smokes and uploads); the
## rendered atlas.md and atlas.json must match their committed sha256
## (tests/data/atlas-quick.sha256), so no cell's verdict or evidence
## moves unnoticed.  A change meant to alter a verdict re-pins the file
## and says why in CHANGES.md.  atlas.jsonl stays unpinned: its rows
## carry the unit ids, which change with the cache key.
atlas-quick:
	$(PYTHON) -m repro atlas --quick --workers 4 \
	    --markdown atlas.md --json atlas.json
	sha256sum -c tests/data/atlas-quick.sha256

## the sharded atlas pipeline end to end: 3 shard sweeps over a shared
## unit cache (shard 1 on a 2-worker pool, so the byte-compare covers
## the pooled path), deterministic merge, byte-compare against an
## unsharded sweep served from that cache and against a cold unsharded
## sweep with no cache at all (cost-dealt scope-group shards and in-run
## search sharing give the same bytes), incremental render, and a
## query-service smoke (what the CI atlas-shard-smoke job runs and
## uploads)
atlas-shard-smoke:
	$(PYTHON) -m repro atlas --quick --shard 0/3 \
	    --cache-dir .atlas-cache --resume
	$(PYTHON) -m repro atlas --quick --shard 1/3 --workers 2 \
	    --cache-dir .atlas-cache --resume
	$(PYTHON) -m repro atlas --quick --shard 2/3 \
	    --cache-dir .atlas-cache --resume
	$(PYTHON) -m repro atlas merge atlas-0-of-3.jsonl \
	    atlas-1-of-3.jsonl atlas-2-of-3.jsonl --out atlas.jsonl
	$(PYTHON) -m repro atlas --quick --log atlas-unsharded.jsonl \
	    --cache-dir .atlas-cache --resume
	cmp atlas.jsonl atlas-unsharded.jsonl
	$(PYTHON) -m repro atlas --quick --log atlas-cold.jsonl
	cmp atlas.jsonl atlas-cold.jsonl
	$(PYTHON) -m repro atlas render --log atlas.jsonl \
	    --markdown atlas.md --json atlas.json
	$(PYTHON) tools/atlas_service_smoke.py atlas.jsonl

## the default atlas sweep, resumable, on all local cores
atlas:
	$(PYTHON) -m repro atlas --workers 4 --resume \
	    --markdown atlas.md --json atlas.json

## the 2000-instance soak smoke (what CI runs and uploads): a cold run
## that fills the window unit cache and whose log must match the
## committed sha256 (tests/data/soak-quick-2000.sha256; a change meant
## to alter behaviour re-pins it), then a resumed pass over the same
## cache into a fresh log, byte-compared against the cold one (the
## window specs' cache keys on a 4-worker pool); then the resumed log's
## final row is torn and a second resume must repair it back to the
## same bytes (the log reader's torn-tail rule, end to end)
soak-smoke:
	$(PYTHON) -m repro soak --profile quick --instances 2000 --workers 4 \
	    --log soak.jsonl --report soak-report.json --cache-dir .soak-cache
	sha256sum -c tests/data/soak-quick-2000.sha256
	rm -f soak-resumed.jsonl
	$(PYTHON) -m repro soak --profile quick --instances 2000 --workers 4 \
	    --resume --log soak-resumed.jsonl --cache-dir .soak-cache
	cmp soak.jsonl soak-resumed.jsonl
	truncate -s -40 soak-resumed.jsonl
	$(PYTHON) -m repro soak --profile quick --instances 2000 --workers 4 \
	    --resume --log soak-resumed.jsonl --cache-dir .soak-cache
	cmp soak.jsonl soak-resumed.jsonl

## run every examples/*.py script end to end; fails on the first
## script that exits non-zero (what the CI test job runs)
examples:
	@for script in examples/*.py; do \
	    echo "== $$script"; \
	    $(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .campaign-cache .atlas-cache .soak-cache .pytest_cache \
	    bench-snapshots
	rm -f atlas.jsonl atlas.md atlas.json soak.jsonl soak-report.json \
	    soak-resumed.jsonl
	rm -f atlas-*-of-*.jsonl atlas-unsharded.jsonl atlas.jsonl.cursor.json
	find . -name __pycache__ -type d -exec rm -rf {} +
