"""Dimension generality and error-path coverage."""

import numpy as np
import pytest

from contactmorse import cli
from contactmorse import hamiltonian as ham
from contactmorse import translated as tp


def test_route_equivalence_n1(settings):
    # S^1: even quadratic term makes the linear flow elliptic but not unitary
    spec = ham.ContactHamiltonianSpec(
        n=1, quadratic=(0.3,), terms=(ham.PerturbationTerm(0.05, (2,), (0,)),)
    )
    params = tp.SweepParams(routes="both", sphere_count=32, t_count=24, keep_per_seed=3)
    rep = tp.sweep_and_count(spec, params, settings)
    assert not rep.continuum_suspected
    assert rep.sphere_count >= 2
    assert all(r.route == "both" for r in rep.records)
    assert tp.index_data(1, tp.ROTATION_PIECES)["jump"] == 2


def test_direct_route_n3(settings):
    spec = ham.ContactHamiltonianSpec(
        n=3,
        quadratic=(0.2, 0.5, 0.8),
        terms=(
            ham.PerturbationTerm(0.05, (2, 0, 0), (1, 0, 0)),
            ham.PerturbationTerm(0.05, (0, 2, 0), (0, 1, 0)),
            ham.PerturbationTerm(0.05, (0, 0, 2), (0, 0, 1)),
        ),
    )
    res = tp.direct_translated_points(spec, settings, sphere_count=128, t_count=32)
    assert not res.continuum_suspected
    assert len(res.records) >= 2
    assert all(r.nondegenerate is True for r in res.records)


def test_single_piece_subdivision_roundtrip(settings):
    # weak Hamiltonian: the whole isotopy is one C^1-small piece (no fiber
    # on F_phi at all)
    spec = ham.ContactHamiltonianSpec(
        n=2,
        quadratic=(0.02, 0.035),
        terms=(
            ham.PerturbationTerm(0.01, (2, 0), (1, 0)),
            ham.PerturbationTerm(0.01, (0, 2), (0, 1)),
        ),
    )
    f_phi = tp.build_phi_genfun(spec, settings)
    assert len(f_phi.links) == 1
    assert f_phi.fiber_dim == 0
    params = tp.SweepParams(routes="both", sphere_count=48, t_count=24, keep_per_seed=3)
    rep = tp.sweep_and_count(spec, params, settings)
    assert not rep.continuum_suspected
    assert rep.sphere_count >= 2
    assert all(r.route == "both" for r in rep.records)


def test_match_routes_reports_mismatch():
    rec_d = tp.TranslatedPointRecord((1.0, 0.0, 0.0, 0.0), 0.25, 1e-12, 0.0, True, "direct")
    rec_g_far = tp.TranslatedPointRecord((0.0, 1.0, 0.0, 0.0), 0.75, 1e-12, 0.0, True, "genfun")
    assert tp._MATCH_ANGULAR == 1e-6 and tp._MATCH_T == 1e-6
    matched, only_d, only_g = tp._match_routes([rec_d], [rec_g_far])
    assert not matched and only_d == [rec_d] and only_g == [rec_g_far]
    # matching pair merges with route 'both'
    rec_g = tp.TranslatedPointRecord(
        (1.0, 0.0, 0.0, 0.0), 0.25 + 1e-8, 1e-10, 0.0, True, "genfun", gf_value=1e-12
    )
    matched, only_d, only_g = tp._match_routes([rec_d], [rec_g])
    assert len(matched) == 1 and not only_d and not only_g
    assert matched[0].route == "both"
    assert matched[0].gf_value == 1e-12


def test_match_routes_rejects_ambiguous_match(settings, sphere_corpus_spec, monkeypatch):
    # two records within the match tolerances of one record of the other
    # route: no unique pairing exists, which is a disagreement, not a pick;
    # the sweep returns it with the records of both routes
    assert tp._MATCH_ANGULAR == 1e-6 and tp._MATCH_T == 1e-6
    q = (1.0, 0.0, 0.0, 0.0)
    one = {route: tp.TranslatedPointRecord(q, 0.25, 1e-12, 0.0, True, route)
           for route in ("direct", "genfun")}
    twins = {route: [tp.TranslatedPointRecord(q, 0.25 + d, 1e-12, 0.0, True, route)
                     for d in (1e-8, -1e-8)]
             for route in ("direct", "genfun")}

    def detected(records):
        return lambda *args, **kwargs: tp.DetectionResult(records, False, len(records))

    params = tp.SweepParams(routes="both", sphere_count=16, t_count=8, keep_per_seed=2)
    for direct, genf in (([one["direct"]], twins["genfun"]),
                         (twins["direct"], [one["genfun"]])):
        assert tp._match_routes(direct, genf) is None
        monkeypatch.setattr(tp, "direct_translated_points", detected(direct))
        monkeypatch.setattr(tp, "find_critical_rays", detected(genf))
        rep = tp.sweep_and_count(sphere_corpus_spec, params, settings)
        assert rep.disagreement.startswith("ambiguous route match")
        assert rep.dump == {"direct": direct, "genfun": genf}
        assert rep.records == [] and rep.bound_outcome == "not_asserted"


def test_cli_help_and_missing_file(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert cli.main(["run", str(tmp_path / "nope.json")]) == cli.EXIT_ERROR


def test_genfun_only_route(settings, sphere_corpus_spec):
    params = tp.SweepParams(routes="genfun", sphere_count=48, t_count=16, keep_per_seed=3)
    rep = tp.sweep_and_count(sphere_corpus_spec, params, settings)
    assert rep.sphere_count >= 2
    assert all(r.route == "genfun" for r in rep.records)
    assert "genfun_records" in rep.route_stats
    assert "direct_records" not in rep.route_stats
