"""Catalog transcription, instantiation and claim verification."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from superint import catalog, geometry, poisson
from superint.catalog import (CatalogEntry, EntryVerification, instantiate, load_catalog,
                              lookup, verify_entry)
from superint.errors import ConstraintError, DomainError, SamplingError, SuperintError
from superint.poisson import Identity, verify_algebra
from superint.systems import SampleJets, sample_points


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


def _spy_verdicts(monkeypatch):
    """Record every claim verdict and algebra report that ``verify_entry``
    reads, in order, as ("claim", spec) and ("algebra", spec)."""
    read = []
    real_judge, real_algebra = catalog._judge, catalog._algebra

    def judge(entry, spec, *args):
        read.append(("claim", spec))
        return real_judge(entry, spec, *args)

    def algebra(samples, *args):
        jets, reports = real_algebra(samples, *args)

        def reading():
            for (spec, _, _), rep in zip(samples, reports):
                read.append(("algebra", spec))
                yield rep

        return jets, reading()

    monkeypatch.setattr(catalog, "_judge", judge)
    monkeypatch.setattr(catalog, "_algebra", algebra)
    return read


def _curved_f4():
    """F_4 with nu = 1 fixed: g = kappa xi eta + 1 is curved, so its
    curvature_zero claim fails at draw 0."""
    base = _row("F_4")
    return dataclasses.replace(base, row_id="F_4_tampered", constraints={
        **base.constraints, "nu": {"kind": "fixed", "value": 1.0}})


def test_no_verdict_is_read_after_a_failing_claim(monkeypatch):
    # the draws after a failing claim are sampled and evaluated with the
    # row's pass, but neither their claim nor their algebra is judged
    tampered = _curved_f4()
    sampled = []
    real_sample = catalog.sample_points
    monkeypatch.setattr(catalog, "sample_points",
                        lambda *a: sampled.append(a) or real_sample(*a))
    read = _spy_verdicts(monkeypatch)
    v = verify_entry(tampered, free_draws=5)
    assert (v.status, v.draws, v.details["failed_at"]["draw"]) == ("failed", 1, 0)
    assert [kind for kind, _ in read] == ["claim", "algebra"]
    assert len(sampled) == 5


@pytest.mark.parametrize("rid", ["F_2", "C_7", "R_1", "GL_1"])
def test_each_draw_samples_once_for_its_claim_and_its_algebra(rid, monkeypatch):
    # one row of each checked claim kind: the claim's geometry check reads
    # the jets the algebra's pass built on the one sample the draw takes
    sampled, claimed, checked = [], [], []
    real_sample, real_judge, real_algebra = (catalog.sample_points, catalog._judge,
                                             catalog._algebra)

    def sample(*args, **kwargs):
        sampled.append(real_sample(*args, **kwargs))
        return sampled[-1]

    def judge(entry, spec, scale, jets):
        claimed.append([s.val for s in jets.seeds])
        return real_judge(entry, spec, scale, jets)

    def algebra(samples, *args):
        checked.extend(pts for _, _, pts in samples)
        return real_algebra(samples, *args)

    for module in (catalog, geometry):
        monkeypatch.setattr(module, "sample_points", sample)
    monkeypatch.setattr(catalog, "_judge", judge)
    monkeypatch.setattr(catalog, "_algebra", algebra)
    v = verify_entry(_row(rid), free_draws=3)
    assert v.status == "verified"
    assert len(sampled) == len(v.details["draws"]) >= 3
    assert all(s is a for s, a in zip(sampled, checked, strict=True))
    for s, seeds in zip(sampled, claimed, strict=True):
        assert all(np.array_equal(x, c) for x, c in zip(seeds, s.components(), strict=True))


def test_each_draw_evaluates_its_points_once(monkeypatch):
    # on the normal path a claim builds no jet of its own: every point is
    # seeded once, by the row's algebra pass, and no fresh jets are made
    import superint.systems as systems_mod

    seeded, fresh = [], []
    real_seed = systems_mod.seed_phase
    monkeypatch.setattr(systems_mod, "seed_phase",
                        lambda point, order=2: seeded.append(point.shape[0])
                        or real_seed(point, order))
    real_init = systems_mod.SampleJets.__init__
    monkeypatch.setattr(systems_mod.SampleJets, "__init__",
                        lambda self, *a: fresh.append(a) or real_init(self, *a))
    for rid in ("F_2", "C_1", "R_1", "R_4", "GL_1", "GL_3", "RL_4"):
        seeded.clear()
        v = verify_entry(_row(rid), free_draws=3, n_points=40)
        assert v.status == "verified", rid
        assert sum(seeded) == 40 * len(v.details["draws"]), rid
    assert fresh == []


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
                    ok, info = catalog._judge(entry, spec, scale, SampleJets(spec, pts))
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
    # third draw's claim raises; with nothing failing before it, it raises
    row = _row("F_2")
    real_judge, real_algebra = catalog._judge, catalog._algebra
    calls = []

    def judge(entry, spec, *args):
        calls.append(spec)
        if len(calls) == 3:
            raise ConstraintError("third claim")
        return real_judge(entry, spec, *args)

    def algebra(samples, *args):
        failing = (Identity("HA", 1.0, 0.0),)
        jets, reports = real_algebra(samples, *args)
        return jets, (dataclasses.replace(rep, identities=failing) if i == 1 else rep
                      for i, rep in enumerate(reports))

    monkeypatch.setattr(catalog, "_judge", judge)
    monkeypatch.setattr(catalog, "_algebra", algebra)
    v = verify_entry(row, free_draws=5)
    assert (v.status, v.draws, v.details["failed_at"]["algebra_pass"]) == ("failed", 2, False)
    assert len(calls) == 2
    monkeypatch.setattr(catalog, "_algebra", real_algebra)
    with pytest.raises(ConstraintError, match="third claim"):
        calls.clear()
        verify_entry(row, free_draws=5)
    assert len(calls) == 3


def test_a_tie_to_a_parameter_tied_after_it_is_unresolved():
    row = _row("R_6")
    constraints = {**row.constraints, "kappa": {"kind": "tied", "param": "nu", "coef": 1.0},
                   "nu": {"kind": "tied", "param": "mu", "coef": 1.0}}
    with pytest.raises(ConstraintError, match="R_6: tie target nu unresolved"):
        instantiate(dataclasses.replace(row, constraints=constraints),
                    {"lambda": 0.3, "mu": 0.8, "k": 0, "ell": 0, "m": 0, "n": 0})


def test_a_claim_of_no_known_kind_is_a_value_error():
    row = _row("GL_1")
    with pytest.raises(ValueError, match="claim bogus is not dispatchable"):
        verify_entry(dataclasses.replace(row, claim={**row.claim, "kind": "bogus"}),
                     free_draws=1)


def test_a_misspelt_certificate_sign_is_a_value_error():
    row = _row("GL_1")
    ann = {**row.annotation, "certificate": {"sign": "Plus", "coords": "liouville"}}
    with pytest.raises(ValueError, match="unknown sign 'Plus'"):
        verify_entry(dataclasses.replace(row, annotation=ann), free_draws=1)


def _exact(value):
    """``value`` with each float as its hexadecimal text and each array as its
    bytes, so that == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, (tuple, list)):
        return [_exact(v) for v in value]
    return value


def _outcome(fn, *args):
    """``fn(*args)`` exactly (:func:`_exact`), or the error it raises."""
    try:
        out = fn(*args)
    except SuperintError as exc:
        return f"{type(exc).__name__}: {exc}"
    return _exact(dataclasses.astuple(out) if dataclasses.is_dataclass(out) else out)


_COORDS = ("liouville", "transformed")
_CERTIFICATES = list(itertools.product(("plus", "minus"), ("liouville", "transformed",
                                                           "eta-only")))


def _from_jets(spec, jets):
    """Every geometry check of every claim kind and coordinate system, judged
    from a sample's jets."""
    xi, eta = jets.seeds[:2]
    return ([_outcome(geometry.curvature_class_of, jets)]
            + [_outcome(geometry.revolution_tag_of, spec, jets, c) for c in _COORDS]
            + [_outcome(geometry._directional_residuals, spec, xi, eta, c, jets.g)
               for c in _COORDS]
            + [_outcome(geometry.linear_residual_of, spec, jets, s, c)
               for s, c in _CERTIFICATES])


def _alone(spec, pts):
    """The same checks on fresh jets of the sample alone, as the sampling
    wrappers take them."""
    return _from_jets(spec, SampleJets(spec, pts))


_CHECKED = [e.row_id for e in lookup(include_aliases=False) if e.machine_checkable]
_LARGE = poisson._CHUNK + 1   # a pass of its own, with a one-point last chunk


@given(row_ids=st.lists(st.sampled_from(_CHECKED), min_size=1, max_size=4),
       sizes=st.lists(st.sampled_from([1, 7, 50, _LARGE]), min_size=1, max_size=3),
       seed=st.integers(0, 2**16))
@example(row_ids=["C_1", "C_4"], sizes=[50, 7], seed=1)             # T4 scales in one group
@example(row_ids=["F_1", "F_2", "R_7", "F_4", "F_6", "F_8"], sizes=[50], seed=2)  # six classes
@example(row_ids=["GL_3", "R_4", "C_2"], sizes=[2500, _LARGE], seed=3)
@settings(max_examples=15, deadline=None)
def test_claims_from_the_pass_equal_the_per_sample_checks(row_ids, sizes, seed):
    # each row's draws at every curvature scale it uses, in one group: each
    # geometry check judged from the pass's jets of a sample gives the bits
    # the check gives on that sample alone
    rng = np.random.default_rng(seed)
    samples = []
    for row_id in row_ids:
        entry = _row(row_id)
        uses_scale = any(c["kind"] == "curvature" for c in entry.constraints.values())
        for scale in (1.0, 2.0, -1.0) if uses_scale else (None,):
            spec = instantiate(entry, catalog._draw_frees(entry, rng), scale)
            n = sizes[len(samples) % len(sizes)]
            try:
                pts = sample_points(spec, n, np.random.default_rng(seed))
            except SamplingError:
                continue
            samples.append((spec, seed, pts))
    assume(samples)
    with np.errstate(all="ignore"):
        jets, _ = poisson._algebra(samples)
        judged = [_from_jets(spec, j)
                  for (spec, _, _), j in zip(samples, jets, strict=True)]
        assert judged == [_alone(spec, pts) for spec, _, pts in samples]


def test_a_row_whose_grouped_pass_raises_is_judged_draw_by_draw(monkeypatch):
    # a grouped pass that leaves its domain sends every draw through its own
    # pass: its claim from fresh jets of its sample, then its algebra
    import superint.systems as systems_mod

    rows = [_row(rid) for rid in ("F_2", "C_1", "R_1", "R_4", "GL_1", "GL_3", "RL_4")]
    want = [verify_entry(e, free_draws=2).to_dict() for e in rows]
    real_group_fns, fresh = poisson.group_fns, []

    def group_fns(specs, counts):
        if len(specs) > 1:
            raise DomainError("metric", 0.0, "grouped pass")
        return real_group_fns(specs, counts)

    real_init = systems_mod.SampleJets.__init__
    monkeypatch.setattr(systems_mod.SampleJets, "__init__",
                        lambda self, *a: fresh.append(a) or real_init(self, *a))
    monkeypatch.setattr(poisson, "group_fns", group_fns)
    assert [verify_entry(e, free_draws=2).to_dict() for e in rows] == want
    assert len(fresh) == sum(len(w["details"]["draws"]) for w in want)


def test_a_one_draw_row_whose_pass_raises_judges_its_claim_first(monkeypatch):
    # a group of one whose pass leaves its domain still has its claim judged,
    # from fresh jets of its sample, before its algebra raises the error of
    # that one pass again, without building the pass a second time
    passes = []

    def group_fns(specs, counts):
        passes.append(len(specs))
        raise DomainError("metric", 0.0, "every pass")

    judged, real_judge = [], catalog._judge
    monkeypatch.setattr(poisson, "group_fns", group_fns)
    monkeypatch.setattr(catalog, "_judge",
                        lambda *a: judged.append(a[1]) or real_judge(*a))
    row = _row("GL_1")
    assert not any(c["kind"] == "curvature" for c in row.constraints.values())
    with pytest.raises(ConstraintError, match="hand_built"):
        verify_entry(dataclasses.replace(row, row_id="hand_built", annotation={}),
                     free_draws=1)
    judged.clear()
    passes.clear()
    with pytest.raises(DomainError, match="every pass"):
        verify_entry(row, free_draws=1)
    assert len(judged) == 1 and passes == [1]


def _failing_sampler(monkeypatch, fails):
    """Make ``catalog.sample_points`` raise ``SamplingError`` on the calls
    whose index ``fails`` accepts; returns the list of the specs it is
    called with."""
    real_sample, calls = catalog.sample_points, []

    def sample(spec, *args):
        calls.append(spec)
        if fails(len(calls) - 1):
            raise SamplingError("no point kept")
        return real_sample(spec, *args)

    monkeypatch.setattr(catalog, "sample_points", sample)
    return calls


def test_a_draw_whose_sampling_fails_is_redrawn(monkeypatch):
    calls = _failing_sampler(monkeypatch, lambda k: k == 0)
    read = _spy_verdicts(monkeypatch)
    v = verify_entry(_row("F_2"), free_draws=2)
    assert (v.status, v.draws, len(v.details["draws"])) == ("verified", 2, 2)
    # the redraw takes new free values, and only the two drawn samples are judged
    assert len(calls) == 3 and calls[0] != calls[1]
    assert [spec for _, spec in read] == [calls[1], calls[1], calls[2], calls[2]]


def test_a_draw_whose_sampling_keeps_failing_fails_the_row(monkeypatch):
    # draw 0 samples; draw 1 fails six times: the row fails at draw 1 once
    # draw 0 is judged, and draw 2 is never taken
    calls = _failing_sampler(monkeypatch, lambda k: k > 0)
    read = _spy_verdicts(monkeypatch)
    v = verify_entry(_row("F_2"), free_draws=3)
    assert (v.status, v.draws, v.details) == ("failed", 1, {"error": "sampling kept failing"})
    assert len(calls) == 7
    assert read == [("claim", calls[0]), ("algebra", calls[0])]


def _raising_instantiate(monkeypatch, at):
    """Make ``catalog.instantiate`` raise ``ConstraintError`` on its call of
    index ``at``, the first attempt at draw ``at`` of a row of one scale."""
    real, calls = catalog.instantiate, []

    def instantiate(*args):
        calls.append(None)
        if len(calls) - 1 == at:
            raise ConstraintError(f"draw {at} cannot be instantiated")
        return real(*args)

    monkeypatch.setattr(catalog, "instantiate", instantiate)


def test_an_error_taking_a_draw_is_raised_after_the_draws_before_it(monkeypatch):
    _raising_instantiate(monkeypatch, 2)
    read = _spy_verdicts(monkeypatch)
    with pytest.raises(ConstraintError, match="draw 2"):
        verify_entry(_row("F_2"), free_draws=4)
    assert [kind for kind, _ in read] == ["claim", "algebra"] * 2


def test_an_error_taking_a_draw_is_not_raised_after_a_failing_draw(monkeypatch):
    # draw 0 fails before draw 2's error is due
    _raising_instantiate(monkeypatch, 2)
    read = _spy_verdicts(monkeypatch)
    v = verify_entry(_curved_f4(), free_draws=4)
    assert (v.status, v.draws, v.details["failed_at"]["draw"]) == ("failed", 1, 0)
    assert [kind for kind, _ in read] == ["claim", "algebra"]


def test_the_affine_correction_judges_no_claim_again(monkeypatch):
    # the algebra fails at this II2 spec and the correction runs inside the
    # draw; the draw's claim is still judged once, from the pass's jets
    values = dict(zip(catalog.PARAM_NAMES, (1e6, -1.0, 1e-9, 1e6, 1e6, -1.0, -1.0, 1e6)))
    row = CatalogEntry("T3", "II2_fails", "II2",
                       {p: {"kind": "fixed", "value": v} for p, v in values.items()},
                       {"kind": "curvature_zero"}, ())
    fits = []
    real_fit = poisson._fit_offsets
    monkeypatch.setattr(poisson, "_fit_offsets", lambda *a: fits.append(a) or real_fit(*a))
    read = _spy_verdicts(monkeypatch)
    v = verify_entry(row, free_draws=3)
    assert (v.status, v.draws, v.details["failed_at"]["algebra_pass"]) == ("failed", 1, False)
    assert len(fits) == 1 and [kind for kind, _ in read] == ["claim", "algebra"]
