"""``capability-contract`` — declared backend capabilities must be real.

The backend registry (:mod:`repro.backends.registry`) routes work by
*declared* :class:`BackendCapabilities`; a flag that lies is worse than a
missing feature because the dispatch layer will happily send a chunked
plan to a backend whose "implementation" is the base class's
``NotImplementedError`` guard — at fit time, deep inside a run.

This project-scoped rule imports the live registry and cross-checks every
registered backend class against what it actually implements:

* ``supports_chunked``  ⇔ overrides ``_embed_with_chunked_plan``
* ``supports_n_workers`` is verified *behaviourally*: ``cls(n_workers=1)``
  must succeed exactly when the flag is set (the base constructor raises
  ``ValueError`` otherwise).

Findings anchor at the backend class's ``class`` statement so the report
points at the declaration to fix.
"""

from __future__ import annotations

import inspect
from typing import Dict, Iterator, Optional, Tuple, Type

from ..findings import Finding
from ..registry import Rule, register_rule

__all__ = ["CapabilityContractRule", "check_capability_contract"]

#: capability flag -> method a truthful declaration must override.
_IFF_OVERRIDES: Tuple[Tuple[str, str], ...] = (
    ("supports_chunked", "_embed_with_chunked_plan"),
)


def _anchor(cls: type) -> Tuple[str, int]:
    """(source path, class-statement line) for ``cls`` — best effort."""
    try:
        path = inspect.getsourcefile(cls) or "<unknown>"
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):  # pragma: no cover - C ext / REPL classes
        return "<unknown>", 1
    return path, line


def _overrides(cls: type, base: type, method: str) -> bool:
    return getattr(cls, method, None) is not getattr(base, method, None)


def check_capability_contract(
    registry: Optional[Dict[str, type]] = None,
    *,
    rule: Optional[Rule] = None,
) -> Iterator[Finding]:
    """Cross-check declared capabilities against implementations.

    ``registry`` defaults to the live backend registry (importing
    :mod:`repro.backends` registers every built-in backend); tests inject
    synthetic ``{name: class}`` mappings to exercise each violation shape.
    """
    from repro.backends.registry import GEEBackend

    if registry is None:
        import repro.backends  # noqa: F401  (triggers registration)
        from repro.backends.registry import _REGISTRY

        registry = dict(_REGISTRY)
    if rule is None:
        rule = CapabilityContractRule()

    for name, cls in sorted(registry.items()):
        path, line = _anchor(cls)
        caps = cls.capabilities

        for flag, method in _IFF_OVERRIDES:
            declared = bool(getattr(caps, flag))
            implemented = _overrides(cls, GEEBackend, method)
            if declared and not implemented:
                yield rule.finding(
                    path,
                    line,
                    f"backend {name!r} declares {flag}=True but does not "
                    f"override {method}; the base-class contract guard will "
                    "raise NotImplementedError at dispatch time",
                    symbol=cls.__name__,
                )
            elif implemented and not declared:
                yield rule.finding(
                    path,
                    line,
                    f"backend {name!r} overrides {method} but declares "
                    f"{flag}=False; the capability gate hides a working "
                    "kernel from dispatch",
                    symbol=cls.__name__,
                )

        yield from _check_n_workers(rule, name, cls, path, line)


def _check_n_workers(
    rule: Rule, name: str, cls: type, path: str, line: int
) -> Iterator[Finding]:
    declared = bool(cls.capabilities.supports_n_workers)
    try:
        cls(n_workers=1)
        accepted = True
    except ValueError:
        accepted = False
    except Exception as exc:  # construction blew up some other way
        yield rule.finding(
            path,
            line,
            f"backend {name!r}: cls(n_workers=1) raised "
            f"{exc.__class__.__name__} ({exc}); construction must either "
            "accept n_workers or reject it with ValueError",
            symbol=cls.__name__,
        )
        return
    if declared and not accepted:
        yield rule.finding(
            path,
            line,
            f"backend {name!r} declares supports_n_workers=True but "
            "cls(n_workers=1) raises ValueError",
            symbol=cls.__name__,
        )
    elif accepted and not declared:
        yield rule.finding(
            path,
            line,
            f"backend {name!r} accepts n_workers=1 at construction but "
            "declares supports_n_workers=False; the flag must match the "
            "constructor's behaviour",
            symbol=cls.__name__,
        )


@register_rule
class CapabilityContractRule(Rule):
    name = "capability-contract"
    scope = "project"
    description = (
        "declared BackendCapabilities flags must match the methods each "
        "registered backend actually overrides (verified against the live "
        "registry)"
    )

    #: Injectable for tests; None means the live registry.
    registry: Optional[Dict[str, type]] = None

    def __init__(self, registry: Optional[Dict[str, type]] = None) -> None:
        if registry is not None:
            self.registry = registry

    def check_project(self, project) -> Iterator[Finding]:
        yield from check_capability_contract(self.registry, rule=self)
