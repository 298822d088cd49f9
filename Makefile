# Convenience targets for the DAC'17 reproduction.

.PHONY: install test bench bench-perf sweep-demo experiments examples trace-demo all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# One BENCHMARK.json workload end to end; prints one JSON line of metrics
# (perfbench/README.md). TRACE=1 prints the per-layer split instead, e.g.
# `make bench-perf WORKLOAD=opencl_kernels TRACE=1`.
WORKLOAD ?= paper_experiments
SEED ?= 1
SECONDS ?= 24
TRACE ?= 0

bench-perf:
	python3 perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)

# Shard the §4 scalability grid across worker processes and verify the
# merged report is byte-identical to a serial run (docs/PERFORMANCE.md,
# "Parallel sweeps").
sweep-demo:
	python -m repro sweep scalability --simulate > sweep_par.txt
	python -m repro sweep scalability --simulate --serial > sweep_ser.txt
	diff sweep_par.txt sweep_ser.txt && echo "parallel == serial"

experiments:
	python -m repro run all

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null && echo OK; done

# Capture a Figure 2 trace bundle and export a Perfetto-loadable JSON
# (load fig2.trace.json at https://ui.perfetto.dev; see docs/TRACING.md).
trace-demo:
	python -m repro run fig2 --trace-out fig2.ctb
	python -m repro trace info fig2.ctb
	python -m repro trace export fig2.ctb --format chrome -o fig2.trace.json

all: test bench experiments
