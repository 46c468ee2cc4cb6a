"""Machine-readable catalog of the classification tables.

Each row records a subclass, per-parameter constraints (fixed / free /
tied to another parameter / a coefficient of 1/K for constant-curvature
rows), the property the row claims, and inert literature tags.  Rows with
a "+/-" in the printed table are stored expanded into their two sign
branches; "~" rows are stored as aliases of their principal row and are
skipped by sweeps.

Claim kinds and how they verify:

* ``curvature_zero``      -- geometry.classify_curvature must say Zero
* ``curvature_constant``  -- Constant(K) for K in {1, 2, -1}
* ``revolution``          -- directional null test in native or class
                             (X, Y) coordinates; rows whose rotational
                             structure needs complex maps carry the
                             annotation "revolution in transformed
                             coordinates - unchecked"
* ``linear_integral``     -- {H, L} = 0 for one of the candidate linear
                             observables (p_xi +/- p_eta, p_X +/- p_Y,
                             p_xi, p_eta)
* ``koenigs_form``        -- metadata only, unverifiable in scope

Every verification also runs the quadratic-algebra check on the
instantiated system; a row passes only if both sides pass.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConstraintError, DomainError, SamplingError
from . import geometry
from .poisson import DEFAULT_SEED, verify_algebra
from .systems import _FIELD_MAP, SystemSpec, spec_from_dict

__all__ = ["CatalogEntry", "load_catalog", "lookup", "instantiate",
           "verify_entry", "EntryVerification", "catalog_json",
           "PARAM_NAMES", "TABLES"]

PARAM_NAMES = tuple(key for key, _ in _FIELD_MAP[1:])   # every wire name but "class"
TABLES = ("T1", "T2", "T3", "T4", "T5", "T6")

_UNVERIFIABLE_CLAIMS = {"koenigs_form", "named_potential"}


@dataclass(frozen=True)
class CatalogEntry:
    table: str
    row_id: str
    cls: str
    constraints: dict
    claim: dict
    literature: tuple
    alias_of: str = None
    printed_row: str = None
    annotation: dict = field(default_factory=dict)

    @property
    def claim_kind(self):
        return self.claim["kind"]

    @property
    def is_alias(self):
        return self.alias_of is not None

    @property
    def machine_checkable(self):
        return self.claim_kind not in _UNVERIFIABLE_CLAIMS

    def free_params(self):
        return [p for p in PARAM_NAMES if self.constraints[p]["kind"] == "free"]


@functools.cache
def load_catalog():
    """Every catalog row, in file order, read from :func:`catalog_json` once
    per process."""
    return tuple(CatalogEntry(
        table=row["table"], row_id=row["row_id"], cls=row["class"],
        constraints=row["constraints"], claim=row["claim"],
        literature=tuple(row["literature"]), alias_of=row["alias_of"],
        printed_row=row.get("printed_row"), annotation=row.get("annotation", {}),
    ) for row in catalog_json()["rows"])


def catalog_json():
    """The embedded document, parsed afresh on each call (for audit dumps);
    :func:`load_catalog` builds its rows from it."""
    with resources.files("superint.data").joinpath("catalog.json").open() as fh:
        return json.load(fh)


def lookup(table=None, cls=None, claim=None, include_aliases=True):
    """Stable-ordered rows matching the given filters."""
    out = []
    for e in load_catalog():
        if table is not None and e.table != table:
            continue
        if cls is not None and e.cls != cls:
            continue
        if claim is not None and e.claim_kind != claim:
            continue
        if not include_aliases and e.is_alias:
            continue
        out.append(e)
    return out


def instantiate(entry: CatalogEntry, free_values: dict,
                curvature_scale: float = None) -> SystemSpec:
    """Concrete SystemSpec honoring the row's Fixed/Tied/1-K constraints.

    ``free_values`` must supply exactly the row's free slots;
    ``curvature_scale`` (K) is required when the row has 1/K entries.
    """
    frees = set(entry.free_params())
    given = set(free_values)
    if given != frees:
        missing, extra = sorted(frees - given), sorted(given - frees)
        raise ConstraintError(
            f"{entry.row_id}: free-value mismatch (missing {missing}, extra {extra})")

    values = dict(free_values)
    pending = {}
    for p in PARAM_NAMES:
        c = entry.constraints[p]
        if c["kind"] == "fixed":
            values[p] = c["value"]
        elif c["kind"] == "curvature":
            if curvature_scale is None or curvature_scale == 0.0:
                raise ConstraintError(
                    f"{entry.row_id}: row uses 1/K entries; curvature_scale required")
            values[p] = c["coef"] / curvature_scale
        elif c["kind"] == "tied":
            pending[p] = c
    for p, c in pending.items():
        if c["param"] not in values:
            raise ConstraintError(f"{entry.row_id}: tie target {c['param']} unresolved")
        values[p] = c["coef"] * values[c["param"]]

    return spec_from_dict({"class": entry.cls, **values})


def _draw_frees(entry, rng):
    """Random free values, bounded away from zero so the row's structure
    (the nonzero pattern the table asserts) is actually exercised."""
    out = {}
    for p in entry.free_params():
        mag = rng.uniform(0.25, 2.0)
        out[p] = float(mag if rng.random() < 0.5 else -mag)
    return out


_LINEAR_CANDIDATES = (
    ("plus", "liouville"), ("minus", "liouville"),
    ("plus", "transformed"), ("minus", "transformed"),
    ("plus", "eta-only"), ("plus", "xi-only"),
)


@dataclass(frozen=True)
class EntryVerification:
    row_id: str
    claim_kind: str
    status: str                  # "verified" | "unverifiable" | "failed"
    draws: int = 0
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status != "failed"

    def to_dict(self):
        return {"row_id": self.row_id, "claim": self.claim_kind,
                "status": self.status, "draws": self.draws, "details": self.details}


def _check_claim(entry, spec, seed, n_points, tol_linear):
    kind = entry.claim_kind
    if kind == "curvature_zero":
        c = geometry.classify_curvature(spec, n_points=n_points, seed=seed)
        return c.tag == "Zero", {"max_abs_K": c.max_abs}
    if kind == "revolution":
        note = entry.annotation.get("status")
        if note:
            return True, {"revolution": "unchecked", "annotation": note}
        for coords in ("liouville", "transformed"):
            tag = geometry.revolution_check(spec, n_points=n_points, seed=seed,
                                            coords=coords)
            if tag != "Neither":
                return True, {"revolution": tag, "coords": coords}
        return False, {"revolution": "Neither"}
    if kind == "linear_integral":
        best = None
        for sign, coords in _LINEAR_CANDIDATES:
            try:
                r = geometry.linear_integral_check(spec, sign, n_points=n_points,
                                                   seed=seed, coords=coords)
            except (SamplingError, DomainError):
                continue
            if best is None or r < best[2]:
                best = (sign, coords, r)
            if r <= tol_linear:
                return True, {"sign": sign, "coords": coords, "residual": r}
        return False, {"best": best}
    raise ValueError(f"claim {kind} is not dispatchable")


def verify_entry(entry: CatalogEntry, free_draws: int = 5, seed: int = DEFAULT_SEED,
                 n_points: int = 50, tol_linear: float = geometry.TOL_LINEAR,
                 curvature_scales=(1.0, 2.0, -1.0)) -> EntryVerification:
    """Instantiate the row ``free_draws`` times and verify its claim.

    Every draw also runs the quadratic-algebra verification on the
    instantiated system; passing requires both.  Metadata-only claims
    report ``unverifiable`` (not failed).  ``free_draws`` below 1 raises
    ``ValueError``: a row checked zero times is not verified.
    """
    if free_draws < 1:
        raise ValueError(f"free_draws must be at least 1, got {free_draws}")
    if not entry.machine_checkable:
        return EntryVerification(entry.row_id, entry.claim_kind, "unverifiable")

    uses_scale = any(c["kind"] == "curvature" for c in entry.constraints.values())
    scales = curvature_scales if uses_scale else (None,)
    rng = np.random.default_rng(seed)
    details = {"draws": []}
    for i in range(free_draws):
        for scale in scales:
            spec = None
            for _attempt in range(6):
                try:
                    spec = instantiate(entry, _draw_frees(entry, rng), scale)
                    draw_seed = seed + 7919 * i + 13
                    if entry.claim_kind == "curvature_constant":
                        c = geometry.classify_curvature(spec, n_points=n_points,
                                                        seed=draw_seed)
                        ok = (c.tag == "Constant" and c.stddev <= geometry.TOL_CURV_CONST
                              and abs(c.mean - scale) <= geometry.TOL_CURV_MEAN)
                        info = {"K": scale, "mean": c.mean, "stddev": c.stddev}
                    else:
                        ok, info = _check_claim(entry, spec, draw_seed, n_points,
                                                tol_linear)
                    rep = verify_algebra(spec, n_points=n_points, seed=draw_seed)
                    break
                except SamplingError:
                    spec = None
                    continue
            if spec is None:
                return EntryVerification(entry.row_id, entry.claim_kind, "failed",
                                         i, {"error": "sampling kept failing"})
            info = dict(info)
            info["algebra_pass"] = rep.passed
            details["draws"].append(info)
            if not (ok and rep.passed):
                details["failed_at"] = {"draw": i, "scale": scale, **info}
                return EntryVerification(entry.row_id, entry.claim_kind, "failed",
                                         i + 1, details)
    return EntryVerification(entry.row_id, entry.claim_kind, "verified",
                             free_draws, details)
