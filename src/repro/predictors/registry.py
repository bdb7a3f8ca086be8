"""Factory for predictors by name — the CLI and experiments use this."""

from typing import List

from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gselect import GSelectPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.static import StaticPredictor
from repro.predictors.tage import TagePredictor
from repro.predictors.tournament import TournamentPredictor
from repro.predictors.twolevel import GAgPredictor, LocalPredictor


def _tage(entries=None, **kwargs) -> TagePredictor:
    """``entries`` sizes the base table; each tagged table gets a
    quarter of it (at least 64 entries)."""
    if entries is not None:
        kwargs.setdefault("base_entries", entries)
        kwargs.setdefault("table_entries", max(64, entries // 4))
    return TagePredictor(**kwargs)


#: ``entries`` is the one size knob every name accepts; static and
#: perfect have no tables and ignore it.
_FACTORIES = {
    "static": lambda entries=None, **kw: StaticPredictor(**kw),
    "bimodal": lambda **kw: BimodalPredictor(**kw),
    "gshare": lambda **kw: GSharePredictor(**kw),
    "gselect": lambda **kw: GSelectPredictor(**kw),
    "gag": lambda **kw: GAgPredictor(**kw),
    "local": lambda **kw: LocalPredictor(**kw),
    "tournament": lambda **kw: TournamentPredictor(**kw),
    "perceptron": lambda **kw: PerceptronPredictor(**kw),
    "perfect": lambda entries=None, **kw: PerfectPredictor(**kw),
    "tage": _tage,
}


def available_predictors() -> List[str]:
    """Names accepted by :func:`make_predictor`."""
    return sorted(_FACTORIES)


def make_predictor(name: str, **kwargs) -> BranchPredictor:
    """Build a predictor by name, e.g. ``make_predictor("gshare",
    entries=4096)``."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r}; available: "
            f"{', '.join(available_predictors())}"
        ) from None
    return factory(**kwargs)
