"""Machine-readable catalog of the classification tables.

Each row records a subclass, per-parameter constraints (fixed / free /
tied to another parameter / a coefficient of 1/K for constant-curvature
rows), the property the row claims, and inert literature tags.  Rows with
a "+/-" in the printed table are stored expanded into their two sign
branches; "~" rows are stored as aliases of their principal row and are
skipped by sweeps.

Claim kinds and how they verify, each against what its row records:

* ``curvature_zero``      -- geometry.curvature_class must say Zero
* ``curvature_constant``  -- Constant, with mean K, for each K in {1, 2, -1}
* ``revolution``          -- geometry.revolution_tag in the recorded
                             ``revolution_coords`` (native or the class's
                             (X, Y)) must give the recorded ``orientation``
                             or Both (a constant metric), never Neither;
                             rows whose rotational structure needs complex
                             maps carry the annotation "revolution in
                             transformed coordinates - unchecked"
* ``linear_integral``     -- {H, L} = 0 (geometry.linear_residual) for the
                             linear observable L of the recorded
                             ``certificate`` (sign and coords: p_xi +/- p_eta,
                             p_X +/- p_Y or p_eta)
* ``koenigs_form``        -- metadata only, unverifiable in scope

Each draw samples once and runs exactly one geometry check on that sample.
A linear or checked revolution row without its recorded fields raises
``ConstraintError``.  Every verification also runs the quadratic-algebra
check on the instantiated system, on the same sample; a row passes only if
both sides pass.  The draws are taken first, in order, up to the first
whose claim fails, and their algebra checks run in one group pass
(``poisson.algebra_reports``); the row reports the first draw where the
claim or the algebra fails, as checking one draw at a time would.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConstraintError, SamplingError
from . import geometry
from .poisson import DEFAULT_SEED, algebra_reports
from .systems import _FIELD_MAP, SystemSpec, sample_points, spec_from_dict

__all__ = ["CatalogEntry", "load_catalog", "lookup", "instantiate",
           "verify_entry", "EntryVerification", "catalog_json",
           "PARAM_NAMES", "TABLES"]

PARAM_NAMES = tuple(key for key, _ in _FIELD_MAP[1:])   # every wire name but "class"
TABLES = ("T1", "T2", "T3", "T4", "T5", "T6")

_UNVERIFIABLE_CLAIMS = {"koenigs_form"}
_CURVATURE_SCALES = (1.0, 2.0, -1.0)  # the K of each draw of a row with 1/K entries


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


def lookup(table=None, include_aliases=True):
    """The rows of ``table`` (every table when None), in file order."""
    return [e for e in load_catalog()
            if (table is None or e.table == table) and (include_aliases or not e.is_alias)]


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


def _recorded(entry, record, *keys):
    """``record``'s values at ``keys``; a ConstraintError naming the row
    when one is missing."""
    try:
        return [record[k] for k in keys]
    except KeyError as exc:
        raise ConstraintError(
            f"{entry.row_id}: {entry.claim_kind} row records no {exc}") from None


def _check_claim(entry, spec, scale, pts):
    """The row's own claim on ``spec``, by one geometry check at the points
    ``pts``: (passed, details)."""
    kind, ann = entry.claim_kind, entry.annotation
    if kind in ("curvature_zero", "curvature_constant"):
        c = geometry.curvature_class(spec, pts)
        if kind == "curvature_zero":
            return c.tag == "Zero", {"max_abs_K": c.max_abs}
        ok = c.tag == "Constant" and abs(c.mean - scale) <= geometry.TOL_CURV_MEAN
        return ok, {"K": scale, "mean": c.mean, "stddev": c.stddev}
    if kind == "revolution" and ann.get("status"):
        return True, {"revolution": "unchecked", "annotation": ann["status"]}
    if kind == "revolution":
        orientation, coords = _recorded(entry, ann, "orientation", "revolution_coords")
        tag = geometry.revolution_tag(spec, pts, coords)
        # a recorded "Neither" claims no structure; a constant metric (Both) has either
        ok = tag != "Neither" and tag in (orientation, "Both")
        return ok, {"revolution": tag, "coords": coords}
    if kind == "linear_integral":
        sign, coords = _recorded(entry, ann.get("certificate", {}), "sign", "coords")
        r = geometry.linear_residual(spec, pts, sign, coords)
        return r <= geometry.TOL_LINEAR, {"sign": sign, "coords": coords, "residual": r}
    raise ValueError(f"claim {kind} is not dispatchable")


def _take_draws(entry, scales, free_draws, seed, n_points, draws):
    """Append the row's draws to ``draws`` in order, up to the first whose
    claim fails: ``(i, scale, spec, draw_seed, points, ok, info)`` each,
    with the one sample the claim and the algebra checks read, and the
    claim's verdict and details.

    A draw whose sampling fails is redrawn, up to six times; returns the
    index of a draw that kept failing, or None.
    """
    rng = np.random.default_rng(seed)
    for i in range(free_draws):
        draw_seed = seed + 7919 * i + 13
        for scale in scales:
            for _attempt in range(6):
                try:
                    spec = instantiate(entry, _draw_frees(entry, rng), scale)
                    pts = sample_points(spec, n_points, np.random.default_rng(draw_seed))
                    break
                except SamplingError:
                    continue
            else:
                return i
            ok, info = _check_claim(entry, spec, scale, pts)
            draws.append((i, scale, spec, draw_seed, pts, ok, info))
            if not ok:
                return None
    return None


def verify_entry(entry: CatalogEntry, free_draws: int = 5, seed: int = DEFAULT_SEED,
                 n_points: int = 50) -> EntryVerification:
    """Instantiate the row ``free_draws`` times and verify its claim.

    Every draw samples once, and its claim and the quadratic-algebra
    verification of the instantiated system read that sample; passing
    requires both.  The draws are taken first, up to the first whose claim
    fails; their algebra checks then run together
    (:func:`superint.poisson.algebra_reports`), and the first draw where
    the claim or the algebra fails is reported, as checking each draw in
    turn would report it.  A draw whose sampling fails is redrawn, up to
    six times.  Metadata-only claims report ``unverifiable`` (not failed).
    ``free_draws`` below 1 raises ``ValueError``: a row checked zero times
    is not verified.
    """
    if free_draws < 1:
        raise ValueError(f"free_draws must be at least 1, got {free_draws}")
    if not entry.machine_checkable:
        return EntryVerification(entry.row_id, entry.claim_kind, "unverifiable")

    uses_scale = any(c["kind"] == "curvature" for c in entry.constraints.values())
    scales = _CURVATURE_SCALES if uses_scale else (None,)
    draws, error, kept_failing = [], None, None
    try:
        kept_failing = _take_draws(entry, scales, free_draws, seed, n_points, draws)
    except Exception as exc:
        # raised once the draws before it have their verdicts, as in turn
        error = exc
    reports = algebra_reports([(spec, s, pts) for _, _, spec, s, pts, _, _ in draws])
    details = {"draws": []}
    for (i, scale, _, _, _, ok, info), rep in zip(draws, reports):
        info["algebra_pass"] = rep.passed
        details["draws"].append(info)
        if not (ok and rep.passed):
            details["failed_at"] = {"draw": i, "scale": scale, **info}
            return EntryVerification(entry.row_id, entry.claim_kind, "failed",
                                     i + 1, details)
    if error is not None:
        raise error
    if kept_failing is not None:
        return EntryVerification(entry.row_id, entry.claim_kind, "failed",
                                 kept_failing, {"error": "sampling kept failing"})
    return EntryVerification(entry.row_id, entry.claim_kind, "verified",
                             free_draws, details)
