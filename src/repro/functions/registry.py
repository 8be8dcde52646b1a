"""Named-``GFunction`` registry: build, name, and serialize members of G.

``GFunction`` wraps an arbitrary callable, which makes it unpicklable by
default — a problem the moment an estimator configured with one has to
cross a process boundary (the distributed driver's process workers, the
coordinator's process merge tree).  This module closes that gap without ever
serializing code: every library factory and every ``random_g`` family is
*registered* under a stable name, and the ``GFunction`` instances they
produce carry a **spec** — a small JSON-serializable dict recording the
factory name and its (JSON-encodable) arguments.  Rebuilding a function is
then a registry lookup plus a factory call, which reproduces the exact same
callable, declared properties, and (for the random families) the exact same
randomness via the :class:`~repro.util.rng.RandomSource` lineage.

The three public layers:

:func:`register`
    Decorator applied to every factory in :mod:`repro.functions.library`
    and :mod:`repro.functions.random_g`.  It records the factory under its
    name and stamps each returned ``GFunction`` with its spec.

:func:`to_spec` / :func:`from_spec`
    The serialization pair.  ``from_spec(to_spec(g))`` returns a
    ``GFunction`` with identical values, name, and declared properties.
    Specs survive JSON round-trips, so they can ride inside the sketch
    wire format (see ``docs/ARCHITECTURE.md``).

:func:`resolve_function`
    CLI-facing resolution: a catalog name, a registered factory name, or a
    restricted Python expression in ``x`` (registered as the
    ``expression`` factory, so even ad-hoc CLI functions serialize).

``GFunction.__reduce__`` (in :mod:`repro.functions.base`) delegates to this
module, which is what makes ``pickle`` work: functions *with* a spec pickle
as their spec; functions without one raise a ``PicklingError`` that points
here.
"""

from __future__ import annotations

import math
from functools import wraps
from typing import Any, Callable, Dict

from repro.functions.base import GFunction
from repro.util.rng import RandomSource, ResolvedSource

SPEC_FORMAT = "repro-gfunction"
SPEC_VERSION = 1

#: name -> factory returning ``GFunction`` or ``(GFunction, DeclaredProperties)``.
_FACTORIES: Dict[str, Callable[..., Any]] = {}


# ------------------------------------------------------------ arg encoding

def _encode_arg(value: Any) -> Any:
    """JSON-encode one factory argument.  ``RandomSource`` arguments are
    reduced to their ``(seed, label)`` lineage — the generator stream is a
    pure function of the lineage, so the rebuilt source reproduces every
    draw the factory makes through :func:`~repro.util.rng.as_source`."""
    if isinstance(value, RandomSource):
        return {
            "__random_source__": list(value.lineage),
            "resolved": isinstance(value, ResolvedSource),
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode_arg(v) for v in value]
    raise TypeError(
        f"cannot encode factory argument {value!r} into a GFunction spec "
        "(only JSON scalars, sequences, and RandomSource lineages serialize)"
    )


def _decode_arg(value: Any) -> Any:
    if isinstance(value, dict) and "__random_source__" in value:
        seed, label = value["__random_source__"]
        cls = ResolvedSource if value.get("resolved") else RandomSource
        return cls(int(seed), str(label))
    if isinstance(value, list):
        return [_decode_arg(v) for v in value]
    return value


# ---------------------------------------------------------------- registry

def register(name: str | None = None):
    """Class-G factory decorator: record the factory by name and stamp the
    ``GFunction`` instances it returns with a rebuildable spec.

    Works for factories returning a bare ``GFunction`` (the library) and
    for the ``random_g`` families returning ``(GFunction, props)`` tuples.
    """

    def decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
        factory_name = factory.__name__ if name is None else name
        if factory_name in _FACTORIES:
            raise ValueError(f"duplicate registry name {factory_name!r}")

        @wraps(factory)
        def wrapper(*args, **kwargs):
            result = factory(*args, **kwargs)
            g = result[0] if isinstance(result, tuple) else result
            g.spec = {
                "format": SPEC_FORMAT,
                "version": SPEC_VERSION,
                "factory": factory_name,
                "args": [_encode_arg(a) for a in args],
                "kwargs": {k: _encode_arg(v) for k, v in sorted(kwargs.items())},
            }
            return result

        _FACTORIES[factory_name] = wrapper
        return wrapper

    return decorate


def registry_names() -> list[str]:
    """All registered factory names, sorted."""
    return sorted(_FACTORIES)


def lookup(name: str) -> Callable[..., Any]:
    """The registered factory for ``name``; ``KeyError`` with the available
    names otherwise."""
    try:
        return _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"no registered GFunction factory named {name!r}; "
            f"known: {', '.join(registry_names())}"
        ) from None


# ----------------------------------------------------------- serialization

def to_spec(g: GFunction) -> dict:
    """The rebuildable spec of a registry-built function.

    Raises ``TypeError`` for functions constructed outside the registry
    (hand-rolled ``GFunction(fn, ...)`` wrappers) — register a factory or
    use :func:`expression` for those.
    """
    spec = getattr(g, "spec", None)
    if spec is None:
        raise TypeError(
            f"GFunction {g.name!r} carries no registry spec; build it "
            "through a factory registered in repro.functions.registry "
            "(or repro.functions.registry.expression) to serialize it"
        )
    return spec


def from_spec(spec: dict) -> GFunction:
    """Rebuild a ``GFunction`` from its spec (the inverse of
    :func:`to_spec`): identical values, name, declared properties, and —
    for the random families — identical randomness."""
    if spec.get("format") != SPEC_FORMAT:
        raise ValueError("not a repro GFunction spec")
    if spec.get("version") != SPEC_VERSION:
        raise ValueError(f"unsupported GFunction spec version {spec.get('version')!r}")
    derived = spec.get("derived")
    if derived is not None:
        base = from_spec(spec["base"])
        if derived == "renamed":
            return base.renamed(spec["name"])
        if derived == "with_properties":
            return base.with_properties(**spec["flags"])
        raise ValueError(f"unknown derived GFunction spec kind {derived!r}")
    factory = lookup(spec["factory"])
    args = [_decode_arg(a) for a in spec.get("args", [])]
    kwargs = {k: _decode_arg(v) for k, v in spec.get("kwargs", {}).items()}
    result = factory(*args, **kwargs)
    return result[0] if isinstance(result, tuple) else result


def derived_spec(base: GFunction, kind: str, **fields: Any) -> dict | None:
    """Spec for a clone produced by ``renamed`` / ``with_properties``:
    wraps the base spec so derivation chains rebuild exactly.  ``None``
    when the base itself has no spec (the clone is then unpicklable, like
    its base)."""
    base_spec = getattr(base, "spec", None)
    if base_spec is None:
        return None
    return {
        "format": SPEC_FORMAT,
        "version": SPEC_VERSION,
        "derived": kind,
        "base": base_spec,
        **fields,
    }


# ------------------------------------------------------- expression factory

_SAFE_GLOBALS = {
    "__builtins__": {},
    "math": math,
    "abs": abs,
    "min": min,
    "max": max,
    "float": float,
    "log": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
}


@register("expression")
def expression(text: str) -> GFunction:
    """A ``GFunction`` from a restricted Python expression in ``x`` — the
    CLI's ad-hoc function syntax (e.g. ``"x**1.5"``).  Registered, so even
    expression-built estimators serialize and cross process boundaries."""
    fn: Callable[[int], float] = eval(  # noqa: S307 - restricted namespace
        f"lambda x: float({text})", dict(_SAFE_GLOBALS)
    )
    fn(2)  # smoke-evaluate before wrapping
    return GFunction(fn, text)


def resolve_function(text: str) -> GFunction:
    """Catalog name, registered factory name (zero-argument), or restricted
    expression in ``x`` — the single resolution path shared by ``repro
    classify/estimate`` and the distributed worker/coordinator commands
    (both sides must resolve the *same* function for states to merge)."""
    from repro.functions.library import catalog

    named = catalog()
    if text in named:
        return named[text]
    if text in _FACTORIES and text != "expression":
        try:
            result = _FACTORIES[text]()
            return result[0] if isinstance(result, tuple) else result
        except TypeError:
            pass  # factory requires arguments; fall through to expression
    try:
        return expression(text)
    except Exception as exc:
        raise ValueError(
            f"{text!r} is neither a catalog name, a registered factory, "
            f"nor a valid expression in x ({exc})"
        ) from None
