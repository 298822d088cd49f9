"""Unified tracing walkthrough: capture -> columnar bundle -> query -> Perfetto.

Runs three of the paper's experiments (Figure 2 order probes, the §5.1
stall monitor, the §5.2 watchpoints) publishing into ONE trace hub, seals
everything into a single columnar `.ctb` bundle, then answers questions
over the stored trace — including reproducing the live latency/order
analyses bit-for-bit — and exports a Perfetto-loadable timeline.

Run:  python examples/trace_capture_query.py
"""

from __future__ import annotations

import os
import tempfile

from repro.analysis.latency import render_latency_table, summarize
from repro.analysis.order import classify_order
from repro.experiments import fig2, sec51, sec52
from repro.trace import (
    ColumnarSink,
    ColumnarStore,
    TraceHub,
    TraceQuery,
    latency_samples,
    stored_order_records,
)
from repro.trace.export import to_chrome_json, validate_chrome_events


def main() -> None:
    # The bundle and the timeline live in a directory removed on exit.
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as workdir:
        walkthrough(workdir)


def walkthrough(workdir: str) -> None:
    bundle = os.path.join(workdir, "experiments.ctb")

    # 1. One hub, one on-disk bundle, three experiments.
    hub = TraceHub()
    hub.attach(ColumnarSink(bundle, hub.registry))
    print("capturing fig2 + sec51 + sec52 into one trace hub...")
    r_fig2 = fig2.run(n=8, num=12, probe_i=4, trace=hub)
    r_sec51 = sec51.run(rows_a=4, col_a=8, col_b=4, trace=hub)
    sec52.run(trace=hub)
    hub.close()   # seals buffered records into the .ctb file

    store = ColumnarStore.load(bundle)
    print(f"\nbundle {os.path.basename(bundle)}:")
    print(f"  {len(store.segments)} segments, {store.total_rows()} records, "
          f"schemas: {', '.join(store.schemas())}")

    # 2. Ad-hoc queries over the stored trace.
    spans = TraceQuery(store).schema("run.span").rows()
    print("\nkernel launches (run.span):")
    for span in spans:
        print(f"  {span['kernel']:12s} {span['end'] - span['start']:>8d} cycles")

    per_kernel = (TraceQuery(store).schema("order.record")
                  .aggregate("inner", by="kernel"))
    print("\norder-probe inner-iteration stats by kernel:")
    for kernel, agg in sorted(per_kernel.items()):
        print(f"  {kernel:12s} count={agg.count:4d} mean inner={agg.mean:.2f}")

    # 3. The legacy analyses run unchanged on the stored trace —
    #    bit-for-bit identical to the live results.
    stored_samples = latency_samples(store)
    assert stored_samples == r_sec51.samples
    print("\n" + render_latency_table(summarize(stored_samples),
                                      "data_a load latency (from disk)"))

    for label, live in (("single-task", r_fig2.single_task),
                        ("ndrange", r_fig2.ndrange)):
        records = stored_order_records(store, kernel=label)
        assert records == live.records
        print(f"stored {label:12s} order -> {classify_order(records)}")

    # 4. Perfetto export (validated against the trace-event schema).
    document = to_chrome_json(store)
    import json
    events = json.loads(document)["traceEvents"]
    problems = validate_chrome_events(events)
    assert not problems, problems
    out = os.path.join(workdir, "experiments.trace.json")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"\nPerfetto timeline: {len(events)} events")
    print("to browse a run, keep its timeline with `python -m repro run "
          "fig2 --trace-out fig2.ctb` and `python -m repro trace export "
          "fig2.ctb -o fig2.json`, then load it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
