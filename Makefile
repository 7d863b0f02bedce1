# Convenience targets for the CARAML reproduction.

PYTHON ?= python3

.PHONY: install test bench hostbench bench-campaign bench-serve bench-powercap gate-serve gate-search gate-powercap figures report validate campaign-demo trace-demo chaos-demo serve-demo cluster-demo watch-demo clean

install:
	pip install -e . --no-build-isolation --no-deps || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Host-time benchmark of one workload (hostbench/README.md):
# make hostbench W=paper|serve|sweep
hostbench:
	$(PYTHON) hostbench/run.py --workload $(or $(W),$(error set W=paper, serve or sweep))

# The recorded benches share one harness (benchmarks/harness.py): each
# writes its own BENCH_<name>.json, QUICK=1 runs the small CI sizes, and
# each gate-* target re-measures one headline at quick size and fails on
# a >20% regression against the reference recorded in that file.

# Campaign harness overhead: fast path vs per-row path, plus the pruned
# sweep search; writes BENCH_campaign.json.
bench-campaign:
	$(PYTHON) benchmarks/bench_campaign_scale.py $(if $(QUICK),--quick)

# Cluster serving scaling: 1 vs 4 vs 8 replicas at a fixed arrival
# rate, plus the fast-path speedup; writes BENCH_serve.json and fails
# when a headline misses its target.
bench-serve:
	$(PYTHON) benchmarks/bench_serve_cluster.py $(if $(QUICK),--quick)

# Power-cap frontier sweep: cold execution vs the exact-cache walk;
# writes BENCH_powercap.json.
bench-powercap:
	$(PYTHON) benchmarks/bench_powercap.py $(if $(QUICK),--quick)

# Shipped serve loop against the test oracle's per-step loop.
gate-serve:
	$(PYTHON) benchmarks/bench_serve_cluster.py --gate BENCH_serve.json

# Pruned search against the exhaustive grid.
gate-search:
	$(PYTHON) benchmarks/bench_campaign_scale.py --gate BENCH_campaign.json

# Cached cap-sweep walk against its cold run.
gate-powercap:
	$(PYTHON) benchmarks/bench_powercap.py --gate BENCH_powercap.json

figures:
	$(PYTHON) examples/render_figures.py figures

report:
	$(PYTHON) -m repro.core.cli report --out caraml_report.md --figures

validate:
	$(PYTHON) -m repro.core.cli validate

campaign-demo:
	$(PYTHON) examples/campaign_sweep.py

trace-demo:
	$(PYTHON) examples/trace_demo.py trace_demo.json

chaos-demo:
	$(PYTHON) examples/chaos_demo.py

serve-demo:
	$(PYTHON) examples/serve_demo.py

cluster-demo:
	$(PYTHON) examples/cluster_demo.py cluster_demo_trace.json

# Live telemetry: burst load with burn-rate alerts, OpenMetrics lint,
# byte-determinism check, then a `caraml watch` dashboard replay.
watch-demo:
	$(PYTHON) examples/telemetry_demo.py telemetry_demo
	PYTHONPATH=src $(PYTHON) -m repro.core.cli watch telemetry_demo/burst.timeseries.jsonl --frames 2

clean:
	rm -rf figures caraml_report.md trace_demo.json cluster_demo_trace.json telemetry_demo .pytest_cache caraml_baseline.json llm_batch_sweep.csv
	find . -name __pycache__ -type d -exec rm -rf {} +
	find . -path ./.git -prune -o -name '*_run' -type d -prune -exec rm -rf {} +
