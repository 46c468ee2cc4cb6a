"""Catalog transcription, instantiation and claim verification."""

import dataclasses
import itertools

import numpy as np
import pytest

from superint import catalog, geometry
from superint.catalog import (CatalogEntry, EntryVerification, instantiate, load_catalog,
                              lookup, verify_entry)
from superint.errors import ConstraintError, SamplingError
from superint.poisson import Identity, verify_algebra
from superint.systems import sample_points


def _row(row_id):
    matches = [e for e in load_catalog() if e.row_id == row_id]
    assert len(matches) == 1
    return matches[0]


def test_row_counts_per_table():
    assert len(lookup(table="T2")) == 13
    assert len(lookup(table="T3")) == 11
    assert len(lookup(table="T4")) == 7
    assert len(lookup(table="T6")) == 4
    # T5 prints 10 rows (7 principals + 3 equivalences); +/- rows are
    # stored expanded, so distinct printed ids must still count 10
    t5 = lookup(table="T5")
    assert len({e.printed_row for e in t5}) == 10
    assert len(t5) == 12


def test_t1_metadata_only():
    rows = lookup(table="T1")
    assert len(rows) == 6
    assert all(e.claim_kind == "koenigs_form" for e in rows)
    assert all(not e.machine_checkable for e in rows)
    v = verify_entry(rows[0])
    assert v.status == "unverifiable" and v.passed


def test_lookup_filters():
    assert len([e for e in lookup(table="T2") if e.cls == "I2"]) == 4   # R_3..R_6
    lin = [e for e in lookup(table="T5") if e.claim_kind == "linear_integral"]
    assert {e.printed_row for e in lin} >= {"GL_1", "GL_7", "GL_1_alias_I2"}
    no_alias = lookup(table="T5", include_aliases=False)
    assert all(e.alias_of is None for e in no_alias)
    assert {e.printed_row for e in no_alias} == {"GL_1", "GL_2", "GL_3", "GL_4",
                                                 "GL_5", "GL_6", "GL_7"}


def test_instantiate_c1():
    spec = instantiate(_row("C_1"), {"k": 0.1, "ell": 0.2, "m": 0.3, "n": 0.4},
                       curvature_scale=1.0)
    assert spec.tag == "I1"
    assert spec.metric_params == (0.0, 0.0, 1.0, 0.0)
    assert spec.potential_params == (0.1, 0.2, 0.3, 0.4)


def test_instantiate_c6_scaling():
    spec = instantiate(_row("C_6"), {"k": 0, "ell": 0, "m": 0, "n": 0},
                       curvature_scale=2.0)
    assert spec.metric_params == (-1.0, -0.5, 1.0, -0.5)


def test_instantiate_f4():
    spec = instantiate(_row("F_4"), {"kappa": 1.5, "k": 0, "ell": 0, "m": 0, "n": 0})
    assert spec.tag == "II1"
    assert spec.metric_params == (1.5, 0.0, 0.0, 0.0)


def test_instantiate_r11_frees():
    entry = _row("R_11")
    assert entry.cls == "II2"
    assert entry.free_params() == ["lambda", "nu", "k", "ell", "m", "n"]
    spec = instantiate(entry, {"lambda": 0.5, "nu": 1.0, "k": 0.1, "ell": 0.2,
                               "m": 0.3, "n": 0.4})
    assert spec.kappa == 0.0 and spec.mu == 0.0 and spec.lam == 0.5


def test_instantiate_tied_r6():
    spec = instantiate(_row("R_6"), {"lambda": 0.3, "mu": 0.8, "k": 0, "ell": 0,
                                     "m": 0, "n": 0})
    assert spec.kappa == -0.8 and spec.nu == 0.0


def test_instantiate_constraint_errors():
    entry = _row("C_1")
    with pytest.raises(ConstraintError):
        instantiate(entry, {"k": 0.1}, curvature_scale=1.0)           # missing
    with pytest.raises(ConstraintError):
        instantiate(entry, {"k": 0.1, "ell": 0.2, "m": 0.3, "n": 0.4,
                            "kappa": 1.0}, curvature_scale=1.0)       # extra
    with pytest.raises(ConstraintError):
        instantiate(entry, {"k": 0.1, "ell": 0.2, "m": 0.3, "n": 0.4})  # no K


def test_verify_f2():
    v = verify_entry(_row("F_2"), free_draws=3)
    assert v.status == "verified"
    assert all(d["algebra_pass"] for d in v.details["draws"])


def test_verify_c7():
    v = verify_entry(_row("C_7"), free_draws=2)
    assert v.status == "verified"
    assert [d["K"] for d in v.details["draws"]] == [1.0, 2.0, -1.0] * 2
    assert all(abs(d["mean"] - d["K"]) <= 1e-7 for d in v.details["draws"])


def test_verify_tampered_row_fails():
    # F_4 with nu = 1 injected: g = kappa xi eta + 1 is curved.
    base = _row("F_4")
    constraints = dict(base.constraints)
    constraints["nu"] = {"kind": "fixed", "value": 1.0}
    tampered = CatalogEntry(table="T3", row_id="F_4_tampered", cls="II1",
                            constraints=constraints, claim={"kind": "curvature_zero"},
                            literature=())
    # independent check that the claim is indeed false now: central-difference
    # curvature of g = kappa xi eta + 1 at one point
    kappa, xi, eta, h = 1.3, 1.1, 0.9, 1e-5
    g = lambda x, e: kappa * x * e + 1.0
    lg = lambda x, e: np.log(g(x, e))
    mixed = (lg(xi + h, eta + h) - lg(xi + h, eta - h) - lg(xi - h, eta + h)
             + lg(xi - h, eta - h)) / (4 * h * h)
    assert abs(-mixed / (2 * g(xi, eta))) > 1e-3
    v = verify_entry(tampered, free_draws=2)
    assert v.status == "failed"


def test_no_draw_is_taken_after_a_failing_claim(monkeypatch):
    base = _row("F_4")
    tampered = dataclasses.replace(base, row_id="F_4_tampered", constraints={
        **base.constraints, "nu": {"kind": "fixed", "value": 1.0}})
    real = catalog._check_claim
    claims = []
    monkeypatch.setattr(catalog, "_check_claim",
                        lambda *args: claims.append(args) or real(*args))
    v = verify_entry(tampered, free_draws=5)
    assert (v.status, v.draws, len(claims)) == ("failed", 1, 1)


@pytest.mark.parametrize("rid", ["F_2", "C_7", "R_1", "GL_1"])
def test_each_draw_samples_once_for_its_claim_and_its_algebra(rid, monkeypatch):
    # one row of each checked claim kind: the claim's geometry check and the
    # algebra check read the one sample the draw takes
    sampled, claimed, checked = [], [], []
    real_sample, real_claim, real_reports = (catalog.sample_points, catalog._check_claim,
                                             catalog.algebra_reports)

    def sample(*args, **kwargs):
        sampled.append(real_sample(*args, **kwargs))
        return sampled[-1]

    def claim(*args):
        claimed.append(args[3])
        return real_claim(*args)

    def reports(samples):
        checked.extend(pts for _, _, pts in samples)
        return real_reports(samples)

    for module in (catalog, geometry):
        monkeypatch.setattr(module, "sample_points", sample)
    monkeypatch.setattr(catalog, "_check_claim", claim)
    monkeypatch.setattr(catalog, "algebra_reports", reports)
    v = verify_entry(_row(rid), free_draws=3)
    assert v.status == "verified"
    assert len(sampled) == len(v.details["draws"]) >= 3
    assert all(s is c is a for s, c, a in zip(sampled, claimed, checked, strict=True))


@pytest.mark.parametrize("draws", [0, -1])
def test_verify_entry_rejects_non_positive_draws(draws):
    # zero draws would check nothing and still report the row verified
    with pytest.raises(ValueError):
        verify_entry(_row("F_2"), free_draws=draws)


def test_r11_marked_new():
    assert "new" in _row("R_11").literature


def test_unchecked_revolution_rows_annotated():
    for rid in ("R_6", "R_8", "R_12"):
        e = _row(rid)
        assert "unchecked" in e.annotation.get("status", "")
        v = verify_entry(e, free_draws=2)
        assert v.status == "verified"
        assert all(d.get("revolution") == "unchecked" for d in v.details["draws"])


def test_alias_rows_point_at_principals():
    aliases = [e for e in load_catalog() if e.is_alias]
    ids = {e.row_id for e in load_catalog()}
    assert len(aliases) == 4
    for e in aliases:
        assert e.alias_of in ids


@pytest.mark.parametrize("rid", ["GL_1", "GL_3", "GL_4", "GL_6_plus", "GL_7", "RL_4"])
def test_linear_rows_record_certificate(rid):
    e = _row(rid)
    v = verify_entry(e, free_draws=2)
    assert v.status == "verified"
    expected = e.annotation["certificate"]
    for d in v.details["draws"]:
        assert (d["sign"], d["coords"]) == (expected["sign"], expected["coords"])


def test_table6_rows_verify_at_five_draws():
    for e in lookup(table="T6"):
        v = verify_entry(e, free_draws=5, seed=0xC0FFEE)
        assert v.status == "verified", e.row_id


def test_alias_rows_verify_including_both_i3_sign_branches():
    # the +/- alias row of the I3 family: both consistent sign pairings
    # hold, with opposite linear-observable signs
    upper = verify_entry(_row("GL_1_alias_I3_upper"), free_draws=2)
    lower = verify_entry(_row("GL_1_alias_I3_lower"), free_draws=2)
    assert upper.status == "verified" and lower.status == "verified"
    assert upper.details["draws"][0]["sign"] == "plus"
    assert lower.details["draws"][0]["sign"] == "minus"


def _same_observable(entry, sign, coords):
    """Whether the certificate (sign, coords) names the row's own observable."""
    rec = entry.annotation["certificate"]
    if coords == rec["coords"] == "eta-only":
        return True                      # p_eta, whatever the sign
    # sqrt(A) = 1 in class II1, so p_X +/- p_Y is p_xi +/- p_eta there
    return (entry.cls == "II1" and sign == rec["sign"]
            and {coords, rec["coords"]} == {"liouville", "transformed"})


def _mutants():
    """(row with one other recorded structure, whether it names the same claim)."""
    for e in load_catalog():
        if e.claim_kind == "linear_integral":
            rec = e.annotation["certificate"]
            for sign, coords in itertools.product(("plus", "minus"),
                                                  ("liouville", "transformed", "eta-only")):
                if (sign, coords) != (rec["sign"], rec["coords"]):
                    ann = {**e.annotation, "certificate": {"sign": sign, "coords": coords}}
                    yield dataclasses.replace(e, annotation=ann), _same_observable(e, sign, coords)
        elif e.claim_kind == "revolution" and "status" not in e.annotation:
            recorded = (e.annotation["orientation"], e.annotation["revolution_coords"])
            for orientation, coords in itertools.product(
                    ("SumOnly", "DiffOnly", "Both", "Neither"), ("liouville", "transformed")):
                if (orientation, coords) != recorded:
                    ann = {**e.annotation, "orientation": orientation,
                           "revolution_coords": coords}
                    yield dataclasses.replace(e, annotation=ann), False


def test_rows_with_another_recorded_structure_fail():
    # each linear row against every other certificate, each checked
    # revolution row against every other orientation and coordinate system
    # (a recorded Both claims a constant metric, a recorded Neither none):
    # only the certificates that name the same observable still verify
    mutants = list(_mutants())
    assert len(mutants) == 16 * 5 + 10 * 7
    verified = [(e.row_id, e.annotation.get("certificate")) for e, same in mutants
                if verify_entry(e, free_draws=1).status == "verified"]
    assert verified == [(e.row_id, e.annotation.get("certificate"))
                        for e, same in mutants if same]
    assert len(verified) == 3


@pytest.mark.parametrize("rid, annotation", [
    ("GL_1", {}),
    ("GL_1", {"certificate": {"sign": "plus"}}),
    ("R_1", {"revolution_coords": "liouville"}),
    ("R_1", {"orientation": "DiffOnly"}),
])
def test_rows_without_their_recorded_structure_raise(rid, annotation):
    row = dataclasses.replace(_row(rid), row_id="hand_built", annotation=annotation)
    with pytest.raises(ConstraintError, match="hand_built"):
        verify_entry(row, free_draws=1)


def _one_draw_at_a_time(entry, free_draws, seed, n_points=50):
    """``verify_entry(...).to_dict()`` as checking each draw in turn gives it:
    the claim, then ``verify_algebra`` on its own, up to the first failure."""
    scales = (1.0, 2.0, -1.0) if any(
        c["kind"] == "curvature" for c in entry.constraints.values()) else (None,)
    rng = np.random.default_rng(seed)
    details = {"draws": []}
    for i in range(free_draws):
        draw_seed = seed + 7919 * i + 13
        for scale in scales:
            for _attempt in range(6):
                try:
                    spec = instantiate(entry, catalog._draw_frees(entry, rng), scale)
                    pts = sample_points(spec, n_points, np.random.default_rng(draw_seed))
                    ok, info = catalog._check_claim(entry, spec, scale, pts)
                    rep = verify_algebra(spec, n_points=n_points, seed=draw_seed)
                    break
                except SamplingError:
                    continue
            else:
                return EntryVerification(entry.row_id, entry.claim_kind, "failed", i,
                                         {"error": "sampling kept failing"}).to_dict()
            info["algebra_pass"] = rep.passed
            details["draws"].append(info)
            if not (ok and rep.passed):
                details["failed_at"] = {"draw": i, "scale": scale, **info}
                return EntryVerification(entry.row_id, entry.claim_kind, "failed", i + 1,
                                         details).to_dict()
    return EntryVerification(entry.row_id, entry.claim_kind, "verified", free_draws,
                             details).to_dict()


@pytest.mark.parametrize("seed", [101, 0xC0FFEE])
def test_rows_verify_as_one_draw_at_a_time(seed):
    # the draws of a row share one algebra pass; each report, and so the
    # row's verdict and details, is the one its draw gives alone
    rows = [e for e in lookup(include_aliases=False) if e.machine_checkable]
    failed = 0
    for e in rows:
        got = verify_entry(e, free_draws=5, seed=seed).to_dict()
        assert got == _one_draw_at_a_time(e, 5, seed), e.row_id
        failed += got["status"] == "failed"
    assert failed <= 1   # T4 C_7 fails on about one seed in five


def test_a_failing_draw_is_reported_before_a_later_draw_raises(monkeypatch):
    # in turn, the second draw's failing algebra ends the row before the
    # third draw's claim raises
    row = _row("F_2")
    real = catalog._check_claim
    calls = []

    def claim(entry, spec, *args):
        calls.append(spec)
        if len(calls) == 3:
            raise ConstraintError("third claim")
        return real(entry, spec, *args)

    real_reports = catalog.algebra_reports

    def reports(samples):
        for i, rep in enumerate(real_reports(samples)):
            failing = (Identity("HA", 1.0, 0.0),)
            yield dataclasses.replace(rep, identities=failing) if i == 1 else rep

    monkeypatch.setattr(catalog, "_check_claim", claim)
    monkeypatch.setattr(catalog, "algebra_reports", reports)
    v = verify_entry(row, free_draws=5)
    assert (v.status, v.draws, v.details["failed_at"]["algebra_pass"]) == ("failed", 2, False)
    monkeypatch.setattr(catalog, "algebra_reports", real_reports)
    with pytest.raises(ConstraintError, match="third claim"):
        calls.clear()
        verify_entry(row, free_draws=5)


def test_a_misspelt_certificate_sign_is_a_value_error():
    row = _row("GL_1")
    ann = {**row.annotation, "certificate": {"sign": "Plus", "coords": "liouville"}}
    with pytest.raises(ValueError, match="unknown sign 'Plus'"):
        verify_entry(dataclasses.replace(row, annotation=ann), free_draws=1)
