"""Workload descriptor: parameterized source, compile, run, trace."""

import hashlib
from dataclasses import dataclass, field
from string import Template
from typing import Dict, Optional

from repro import __version__
from repro.compiler import CompileConfig, compile_source, compile_with_profile
from repro.compiler import config as config_mod
from repro.engine import run as run_program
from repro.telemetry import span
from repro.trace import Trace, TraceCache, TraceMeta, TraceRecorder

#: Canonical scale names, smallest first.
SCALES = ("tiny", "small", "ref")


@dataclass
class WorkloadRun:
    """Result of executing a workload once."""

    return_value: int
    instructions: int


@dataclass
class Workload:
    """One benchmark: a ``minic`` source template plus input scales.

    Attributes:
        name: suite-unique identifier (e.g. ``"qsort"``).
        description: one line on what the kernel models.
        template: ``string.Template`` text with ``$param`` placeholders.
        scales: per-scale parameter dictionaries (keys: tiny/small/ref).
        expected: optional per-scale expected ``main`` return values,
            asserted whenever the workload runs (a built-in self-check
            that baseline and hyperblock compiles agree).
    """

    name: str
    description: str
    template: str
    scales: Dict[str, Dict[str, int]]
    expected: Dict[str, int] = field(default_factory=dict)

    def source(self, scale: str = "small") -> str:
        """The concrete ``minic`` source for ``scale``."""
        if scale not in self.scales:
            raise KeyError(
                f"workload {self.name!r} has no scale {scale!r}; "
                f"choose from {sorted(self.scales)}"
            )
        return Template(self.template).substitute(self.scales[scale])

    def compile(self, scale: str = "small",
                config: Optional[CompileConfig] = None):
        """Compile at ``scale``; hyperblock configs get the two-pass
        profile-guided flow automatically."""
        config = config or config_mod.BASELINE
        source = self.source(scale)
        if config.hyperblocks:
            return compile_with_profile(source, config)
        with span("compile"):
            return compile_source(source, config)

    def run(self, scale: str = "small",
            config: Optional[CompileConfig] = None) -> WorkloadRun:
        """Compile and execute once (no tracing)."""
        compiled = self.compile(scale, config)
        result = run_program(compiled.executable)
        self._check_expected(scale, result.return_value)
        return WorkloadRun(
            return_value=result.return_value,
            instructions=result.instructions,
        )

    def trace(
        self,
        scale: str = "small",
        hyperblocks: bool = True,
        config: Optional[CompileConfig] = None,
        cache: Optional[TraceCache] = None,
        use_cache: bool = True,
    ) -> Trace:
        """Produce (or fetch from cache) the dynamic trace.

        ``hyperblocks`` picks between the two canonical configs when no
        explicit ``config`` is given.
        """
        if config is None:
            config = (
                config_mod.HYPERBLOCK if hyperblocks else config_mod.BASELINE
            )
        key = self._cache_key(scale, config)
        if use_cache:
            cache = cache or TraceCache()
            return cache.get_or_build(
                key, lambda: self._build_trace(scale, config)
            )
        return self._build_trace(scale, config)

    def _build_trace(self, scale: str, config: CompileConfig) -> Trace:
        with span("trace-build", workload=self.name, scale=scale):
            compiled = self.compile(scale, config)
            recorder = TraceRecorder()
            with span("traced-run"):
                result = run_program(compiled.executable, recorder=recorder)
        self._check_expected(scale, result.return_value)
        meta = TraceMeta(
            workload=self.name,
            scale=scale,
            compile_config=config.cache_key(),
            instructions=result.instructions,
            return_value=result.return_value,
        )
        return recorder.finish(meta)

    def _check_expected(self, scale: str, value: int) -> None:
        if scale in self.expected and self.expected[scale] != value:
            raise AssertionError(
                f"workload {self.name!r} scale {scale!r} returned {value}, "
                f"expected {self.expected[scale]}"
            )

    def _cache_key(self, scale: str, config: CompileConfig) -> str:
        digest = hashlib.sha256(self.source(scale).encode()).hexdigest()[:16]
        return (
            f"v{__version__}|{self.name}|{scale}|{digest}|"
            f"{config.cache_key()}"
        )
