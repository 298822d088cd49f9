"""One registry of the paper's experiments, shared by every entry point.

The CLI's ``run`` subcommand, the sweep families, and the emulation
server's ``experiment.run`` method all dispatch through
:func:`run_experiment`, so an experiment executed remotely renders
byte-for-byte what the in-process CLI prints — the server's determinism
contract falls out of sharing this code rather than mirroring it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.experiments import (fig2, limitations, scalability, sec31,
                               sec51, sec52, table1)

#: name -> callable(hub, **params) returning the rendered report text.
EXPERIMENTS: Dict[str, Callable[..., str]] = {
    "fig2": lambda hub, n, num: fig2.run(n=n, num=num, trace=hub).render(),
    "table1": lambda hub, depth: table1.run(depth=depth).render(),
    "sec31": lambda hub: sec31.run().render(),
    "sec51": lambda hub: sec51.run(trace=hub).render(),
    "sec52": lambda hub: sec52.run(trace=hub).render(),
    "limitations": lambda hub: limitations.run().render(),
    "scalability": lambda hub: scalability.run().render(),
}

#: name -> the params its runner reads, with their defaults;
#: :func:`run_experiment` rejects any other key rather than run the paper
#: default in its place.
PARAMS: Dict[str, Dict[str, Any]] = {
    "fig2": {"n": fig2.PAPER_N, "num": fig2.PAPER_NUM},
    "table1": {"depth": table1.TABLE1_DEPTH},
    "sec31": {},
    "sec51": {},
    "sec52": {},
    "limitations": {},
    "scalability": {},
}


class ExperimentParamError(ReproError):
    """A param the named experiment does not read."""

    def __init__(self, experiment: str, param: str) -> None:
        accepted = ", ".join(sorted(PARAMS[experiment])) or "none"
        super().__init__(f"experiment {experiment!r} takes no param "
                         f"{param!r} (accepted: {accepted})")
        self.param = param


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
    the available choices; a param the experiment does not read raises
    :class:`ExperimentParamError`.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: "
            f"{', '.join(sorted(EXPERIMENTS))}") from None
    defaults = PARAMS[name]
    for param in params:
        if param not in defaults:
            raise ExperimentParamError(name, param)
    return runner(hub if name in TRACEABLE else None,
                  **{**defaults, **params})
