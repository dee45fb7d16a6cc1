"""Constructors for the cohomology rings the bound rules consume.

Covered: the special orthogonal groups SO(n) over characteristic 0 and 2,
real and complex projective spaces, tori, spheres, and closed orientable
surfaces.  Characteristic-0 rings are realized over the exact rationals; for
rings whose structure constants are integers this computes the same ranks,
kernels and cup lengths as any other characteristic-0 coefficient field, so
results stated over the reals hold verbatim.

Catalog rings are addressable by id strings of the form ``family:param`` or
``family:param:charP``, e.g. ``so:5:char2``, ``cp:3:char0``, ``rp:7``
(``rp`` implies characteristic 2).  ``t`` = torus, ``s`` = sphere,
``sigma`` = orientable surface by genus.  :func:`catalog_ring` builds one
and returns it with its full ``family:param:charP`` id.  :func:`resolve_ring`
is the one place a ring reference (catalog id, ring JSON path or inline ring
object) becomes a ring.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Optional

from . import table
from .algebra import (
    Algebra,
    DEFAULT_CAPACITY,
    GeneratorSpec,
    MonomialAlgebra,
    check_capacity,
)
from .fields import F2, QQ, Field, parse_field


class CatalogError(ValueError):
    """Unknown catalog id or unsupported field for the requested ring."""


# A monomial ring keeps one stride per generator, and stride i has as many
# bits as the classes of the generators after it: O(r²) bits in all, about
# 6 MB at this many generators of truncation 2 and 625 MB at ten times as many.
MAX_GENERATORS = 10_000


def _check_generator_count(family: str, n: int, count: int) -> None:
    """Refuse ``family:n`` before building its ``count`` generators."""
    if count > MAX_GENERATORS:
        raise CatalogError(
            f"{family}:{n} has {count} generators; "
            f"the catalog builds rings of at most {MAX_GENERATORS} generators"
        )


def pi_exponent(i: int, n: int) -> int:
    """Smallest power of two ``2**k`` with ``i * 2**k >= n`` (i odd, i < n).

    These are the truncation heights of the characteristic-2 cohomology of
    SO(n): one truncated polynomial generator of degree i per odd i < n.
    """
    if i % 2 == 0 or i < 1:
        raise CatalogError(f"i must be odd and positive, got {i}")
    if i >= n:
        raise CatalogError(f"require i < n, got i={i}, n={n}")
    p = 1
    while i * p < n:
        p *= 2
    return p


def so_ring(n: int, field: Field) -> Algebra:
    """Cohomology ring of SO(n) over the given field.

    Characteristic != 2: an exterior algebra on ``n // 2`` odd-degree
    generators — degrees 3, 7, ..., 4m-1 for SO(2m+1) and degrees
    3, 7, ..., 4m-5 plus a final generator of degree 2m-1 for SO(2m)
    (the extra generator is listed last).  Characteristic 2: the tensor
    product of F2[b_i]/(b_i^{p_i}) over odd i < n with p_i from
    :func:`pi_exponent`.  n = 1 yields the ground field (SO(1) is a point).
    Either way there are ``n // 2`` generators, at most ``MAX_GENERATORS``.
    """
    if n < 1:
        raise CatalogError(f"so requires n >= 1, got {n}")
    _check_generator_count("so", n, n // 2)
    if field.characteristic == 2:
        gens = [
            GeneratorSpec(f"b{i}", i, pi_exponent(i, n)) for i in range(1, n, 2)
        ]
        return MonomialAlgebra(field, gens)
    m = n // 2
    if n % 2 == 1:
        degrees = [4 * k - 1 for k in range(1, m + 1)]
        gens = [GeneratorSpec(f"a{d}", d, 2) for d in degrees]
    else:
        degrees = [4 * k - 1 for k in range(1, m)]
        gens = [GeneratorSpec(f"a{d}", d, 2) for d in degrees]
        gens.append(GeneratorSpec(f"a'{2 * m - 1}", 2 * m - 1, 2))
    return MonomialAlgebra(field, gens)


def rp_ring(n: int, field: Field = F2) -> Algebra:
    """F2[a]/(a^{n+1}) with ``a`` of degree 1 — real projective n-space.

    Only characteristic 2 is supported; other coefficients are rejected
    rather than silently returning a different ring.
    """
    if n < 1:
        raise CatalogError(f"rp requires n >= 1, got {n}")
    if field.characteristic != 2:
        raise CatalogError("rp ring is only available over characteristic 2")
    return MonomialAlgebra(field, [GeneratorSpec("a", 1, n + 1)])


def cp_ring(n: int, field: Field = QQ) -> Algebra:
    """K[u]/(u^{n+1}) with ``u`` of degree 2 — complex projective n-space."""
    if n < 1:
        raise CatalogError(f"cp requires n >= 1, got {n}")
    return MonomialAlgebra(field, [GeneratorSpec("u", 2, n + 1)])


def torus_ring(n: int, field: Field = QQ) -> Algebra:
    """Exterior algebra on n degree-1 generators — the n-torus.

    The square-zero truncation is imposed explicitly so the same presentation
    is correct over characteristic 2 as well.  At most ``MAX_GENERATORS``.
    """
    if n < 1:
        raise CatalogError(f"t requires n >= 1, got {n}")
    _check_generator_count("t", n, n)
    gens = [GeneratorSpec(f"u{i}", 1, 2) for i in range(1, n + 1)]
    return MonomialAlgebra(field, gens)


def sphere_ring(n: int, field: Field = QQ) -> Algebra:
    """K[x]/(x^2) with ``x`` of degree n — the n-sphere."""
    if n < 1:
        raise CatalogError(f"s requires n >= 1, got {n}")
    return MonomialAlgebra(field, [GeneratorSpec("x", n, 2)])


def surface_ring(g: int, field: Field = F2, capacity: int = DEFAULT_CAPACITY) -> Algebra:
    """Closed orientable surface of genus g as a structure-constant algebra.

    Basis 1, a_1..a_g, b_1..b_g, w with a_i·b_i = w = -b_i·a_i, every other
    product of positive-degree classes zero.  (Genus 1 is the torus in table
    form.)  Not a truncated-generator algebra for g >= 2, hence the table
    encoding.
    """
    if g < 1:
        raise CatalogError(f"sigma requires genus >= 1, got {g}")
    check_capacity(2 * g + 2, capacity)  # before building a table that size
    names = ["1"] + [f"a{i}" for i in range(1, g + 1)] + [
        f"b{i}" for i in range(1, g + 1)
    ] + ["w"]
    degrees = [0] + [1] * (2 * g) + [2]
    w = 2 * g + 1
    products: dict[tuple[int, int], dict] = {}
    for i in range(1, g + 1):
        products[(i, g + i)] = {w: 1}
        products[(g + i, i)] = {w: field.neg(1)}
    return table.TableAlgebra(field, names, degrees, products, capacity=capacity)


# -- catalog ids -----------------------------------------------------------------


_FAMILIES: dict[str, Callable] = {
    "so": so_ring,
    "rp": rp_ring,
    "cp": cp_ring,
    "t": torus_ring,
    "s": sphere_ring,
    "sigma": surface_ring,
}


def parse_catalog_id(text: str) -> tuple[str, int, Optional[Field]]:
    """Split ``family:param[:charP]``; rp defaults to characteristic 2."""
    parts = text.strip().split(":")
    if len(parts) not in (2, 3):
        raise CatalogError(f"bad catalog id {text!r}; expected family:param[:charP]")
    family, param_s = parts[0], parts[1]
    if family not in _FAMILIES:
        raise CatalogError(
            f"unknown ring family {family!r}; known: {', '.join(sorted(_FAMILIES))}"
        )
    try:
        param = int(param_s)
    except ValueError:
        raise CatalogError(f"bad parameter {param_s!r} in catalog id {text!r}")
    field: Optional[Field] = None
    if len(parts) == 3:
        field = parse_field(parts[2])
    elif family == "rp":
        field = F2
    return family, param, field


def catalog_ring(
    text: str, field: Optional[Field] = None, capacity: int = DEFAULT_CAPACITY
) -> tuple[str, Algebra]:
    """Resolve a catalog id (with optional external field) to ``(id, algebra)``.

    The returned id is ``family:param:charP``, naming the field used.
    """
    family, param, declared = parse_catalog_id(text)
    if declared is not None and field is not None and declared != field:
        raise CatalogError(
            f"catalog id {text!r} declares {declared.token()} but "
            f"{field.token()} was requested"
        )
    use = declared or field
    if use is None:
        raise CatalogError(f"catalog id {text!r} needs a field (append :charP)")
    ctor = _FAMILIES[family]
    # Only the table-encoded family lists its basis and takes the cap.
    algebra = ctor(param, use, capacity) if ctor is surface_ring else ctor(param, use)
    return f"{family}:{param}:char{use.characteristic}", algebra


def resolve_ring(
    ref,
    field: Optional[Field],
    capacity: int,
    base_dir: Optional[str] = None,
) -> tuple[str, Algebra]:
    """Resolve a ring reference to ``(id, algebra)``.

    ``ref`` is an inline ring object (id ``"inline"``), a path to a ring JSON
    file (it has a slash, ends in ``.json`` or names an existing file;
    relative paths are taken from ``base_dir``; the id is ``ref`` as given),
    or a catalog id (the id names the field).
    """
    if isinstance(ref, dict):
        return "inline", table.ring_from_json(ref, field=field, capacity=capacity)
    path = os.path.join(base_dir or "", ref)
    if "/" in ref or ref.endswith(".json") or os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return ref, table.ring_from_json(json.load(fh), field=field, capacity=capacity)
    return catalog_ring(ref, field=field, capacity=capacity)
