"""Builder registry: the evaluation's histogram variants as pluggable specs.

Each :class:`BuilderSpec` packages one construction variant -- its kind
name, the paper section it reproduces, a config *prepare* hook that pins
the kind-implied settings (bounded search for the ``*B`` variants,
distinct-count testing for ``1VincB1``), and the *construct* callable
that runs the underlying builder with the pipeline's
:class:`~repro.engine.pipeline.BuildContext`.

:data:`DEFAULT_REGISTRY` registers the seven variants of the paper's
evaluation (Table 5); :func:`repro.core.builder.build_histogram` and the
rest of the system dispatch through it, so registering a new spec makes
a new kind available everywhere (CLI, service, parallel builds) at once.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, Tuple

from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.histogram import Histogram
from repro.core.qewh import build_qewh
from repro.core.qvwh import build_atomic_dense, build_qvwh
from repro.core.valuebased import build_value_histogram

__all__ = ["BuilderSpec", "BuilderRegistry", "DEFAULT_REGISTRY"]


@dataclasses.dataclass(frozen=True)
class BuilderSpec:
    """One registered histogram construction variant.

    Attributes
    ----------
    kind:
        The evaluation's variant name (e.g. ``"V8DincB"``); the registry
        key.
    section:
        Paper section the construction reproduces (documentation only).
    summary:
        One-line human description.
    value_domain:
        True when the builder works on raw values rather than dense
        dictionary codes; decides how sources are densified.
    prepare:
        Maps the caller's :class:`HistogramConfig` to the effective one,
        pinning settings the kind name implies.
    construct:
        ``(density, context) -> Histogram``; runs the builder with the
        prepared config and the context's trace.
    """

    kind: str
    section: str
    summary: str
    value_domain: bool
    prepare: Callable[[HistogramConfig], HistogramConfig]
    construct: Callable[[AttributeDensity, "object"], Histogram]


class BuilderRegistry:
    """Ordered kind → :class:`BuilderSpec` map with a helpful miss path."""

    def __init__(self) -> None:
        self._specs: Dict[str, BuilderSpec] = {}

    def register(self, spec: BuilderSpec, replace: bool = False) -> BuilderSpec:
        if spec.kind in self._specs and not replace:
            raise ValueError(f"histogram kind {spec.kind!r} already registered")
        self._specs[spec.kind] = spec
        return spec

    def get(self, kind: str) -> BuilderSpec:
        spec = self._specs.get(kind)
        if spec is None:
            raise ValueError(
                f"unknown histogram kind {kind!r}; pick from {self.kinds()}"
            )
        return spec

    def kinds(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def __contains__(self, kind: str) -> bool:
        return kind in self._specs

    def __iter__(self) -> Iterator[BuilderSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


def _with_bounded(config: HistogramConfig, bounded: bool) -> HistogramConfig:
    if config.bounded_search == bounded:
        return config
    return dataclasses.replace(config, bounded_search=bounded)


def _with_distinct(config: HistogramConfig, test_distinct: bool) -> HistogramConfig:
    if config.test_distinct == test_distinct:
        return config
    return dataclasses.replace(config, test_distinct=test_distinct)


def _identity(config: HistogramConfig) -> HistogramConfig:
    return config


def _default_registry() -> BuilderRegistry:
    registry = BuilderRegistry()
    registry.register(BuilderSpec(
        kind="F8Dgt",
        section="7.1",
        summary="8 fixed-width bucklets, generate-and-test",
        value_domain=False,
        prepare=_identity,
        construct=lambda density, ctx: build_qewh(
            density, ctx.config, trace=ctx.trace, cache=ctx.cache
        ),
    ))
    registry.register(BuilderSpec(
        kind="V8Dinc",
        section="7.2",
        summary="8 variable-width bucklets, incremental",
        value_domain=False,
        prepare=lambda config: _with_bounded(config, False),
        construct=lambda density, ctx: build_qvwh(
            density, ctx.config, trace=ctx.trace
        ),
    ))
    registry.register(BuilderSpec(
        kind="V8DincB",
        section="4.5-4.7",
        summary="8 variable-width bucklets, incremental, bounded search",
        value_domain=False,
        prepare=lambda config: _with_bounded(config, True),
        construct=lambda density, ctx: build_qvwh(
            density, ctx.config, trace=ctx.trace
        ),
    ))
    registry.register(BuilderSpec(
        kind="1Dinc",
        section="8.4",
        summary="atomic dense buckets, incremental",
        value_domain=False,
        prepare=lambda config: _with_bounded(config, False),
        construct=lambda density, ctx: build_atomic_dense(
            density, ctx.config, trace=ctx.trace
        ),
    ))
    registry.register(BuilderSpec(
        kind="1DincB",
        section="8.4",
        summary="atomic dense buckets, incremental, bounded search",
        value_domain=False,
        prepare=lambda config: _with_bounded(config, True),
        construct=lambda density, ctx: build_atomic_dense(
            density, ctx.config, trace=ctx.trace
        ),
    ))
    registry.register(BuilderSpec(
        kind="1VincB1",
        section="8.3",
        summary="value-based atomic, range + distinct guarantees",
        value_domain=True,
        prepare=lambda config: _with_distinct(config, True),
        construct=lambda density, ctx: build_value_histogram(
            density, ctx.config, trace=ctx.trace, cache=ctx.cache
        ),
    ))
    registry.register(BuilderSpec(
        kind="1VincB2",
        section="8.3",
        summary="value-based atomic, range guarantees only",
        value_domain=True,
        prepare=lambda config: _with_distinct(config, False),
        construct=lambda density, ctx: build_value_histogram(
            density, ctx.config, trace=ctx.trace, cache=ctx.cache
        ),
    ))
    return registry


DEFAULT_REGISTRY = _default_registry()
