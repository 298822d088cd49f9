"""One registry of the paper's experiments, shared by every entry point.

The CLI's ``run`` subcommand, the sweep families, and the emulation
server's ``experiment.run`` method all dispatch through
:func:`run_experiment`, so an experiment executed remotely renders
byte-for-byte what the in-process CLI prints — the server's determinism
contract falls out of sharing this code rather than mirroring it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments import (fig2, limitations, scalability, sec31,
                               sec51, sec52, table1)

#: name -> callable(params, hub) returning the rendered report text.
EXPERIMENTS: Dict[str, Callable[[Dict[str, Any], Any], str]] = {
    "fig2": lambda params, hub: fig2.run(
        n=params.get("n", fig2.PAPER_N),
        num=params.get("num", fig2.PAPER_NUM),
        trace=hub).render(),
    "table1": lambda params, hub: table1.run(
        depth=params.get("depth", table1.TABLE1_DEPTH)).render(),
    "sec31": lambda params, hub: sec31.run().render(),
    "sec51": lambda params, hub: sec51.run(trace=hub).render(),
    "sec52": lambda params, hub: sec52.run(trace=hub).render(),
    "limitations": lambda params, hub: limitations.run().render(),
    "scalability": lambda params, hub: scalability.run().render(),
}

#: Experiments that publish into a trace hub when one is supplied.
TRACEABLE: Tuple[str, ...] = ("fig2", "sec51", "sec52")

#: Canonical "run everything" order (the paper's presentation order).
PAPER_ORDER: Tuple[str, ...] = ("sec31", "fig2", "table1", "sec51", "sec52",
                                "limitations", "scalability")


def run_experiment(name: str, hub: Optional[Any] = None,
                   **params: Any) -> str:
    """Run one experiment by name; returns its rendered report text.

    ``hub`` is forwarded only to :data:`TRACEABLE` experiments (the
    others never publish records). Unknown names raise ``KeyError`` with
    the available choices.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: "
            f"{', '.join(sorted(EXPERIMENTS))}") from None
    return runner(dict(params), hub if name in TRACEABLE else None)
