"""Record the golden statistics ``paper_experiments`` items are checked on.

Run from the repository root:
``PYTHONPATH=src:. python3 perfbench/make_golden.py``. It rewrites
``perfbench/golden_paper.json``; commit it only when a change to the
hardware model is meant to move the simulated statistics.
"""

from __future__ import annotations

import json

from perfbench.paper_experiments import (CONFIGS, GOLDEN_PATH, config_key,
                                         summarize)


def main() -> None:
    from repro.experiments import fig2, sec51, sec52

    run = {"fig2": fig2.run, "sec51": sec51.run, "sec52": sec52.run}
    golden = {config_key(kind, config): summarize(kind, run[kind](**config))
              for kind, entries in CONFIGS.items() for config in entries}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
