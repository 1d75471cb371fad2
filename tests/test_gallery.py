"""Gallery entries: ambient constraints, file-form round trips, Lorentz generator."""

import math

import numpy as np
import pytest

from wintgen.errors import DegenerateCurve, NotLorentz
from wintgen.gallery import (all_entries, by_name, check_lorentz,
                             cone_over_veronese, hopf_lift_curve, names,
                             random_lorentz, so3_example)
from wintgen.immersion import (eval_immersion_values, parse_immersion,
                               sample_points)


def test_every_entry_respects_its_ambient():
    for entry in all_entries():
        res = max(entry.spec.ambient.constraint_residual(
            eval_immersion_values(entry.spec, p)) for p in entry.sample_plan)
        assert res < 1e-10, f"{entry.name}: constraint residual {res}"


def test_registry_names_unique():
    entries = all_entries()
    listed = [e.name for e in entries]
    assert len(set(listed)) == len(listed)
    assert listed == names() == ["so3", "veronese-hopf", "hopf-generic",
                                 "cone-veronese", "umbilic-control",
                                 "generic-control"]
    for entry in entries:
        built = by_name(entry.name)
        assert built.name == entry.name
        assert built.sample_plan == entry.sample_plan
    with pytest.raises(KeyError, match="no gallery entry named 'nope'"):
        by_name("nope")


def test_each_entry_is_built_once_per_process():
    entries = all_entries()
    for name, entry in zip(names(), entries):
        assert by_name(name) is by_name(name) is entry
    assert all(a is b for a, b in zip(all_entries(), entries))


def test_so3_point_is_unit():
    entry = so3_example()
    x = eval_immersion_values(entry.spec, (0.3, 0.7, 1.1))
    assert sum(v * v for v in x) == pytest.approx(1.0, abs=1e-14)


def test_file_form_round_trip():
    # parsed expression files agree with the built-in evaluators pointwise
    for entry in all_entries():
        if entry.expression_text is None:
            continue
        parsed = parse_immersion(entry.expression_text)
        assert parsed.ambient is entry.spec.ambient
        pts = sample_points(entry.spec.domain, 100, seed=11)
        for p in pts:
            a = eval_immersion_values(entry.spec, p)
            b = eval_immersion_values(parsed, p)
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12, entry.name


def test_cone_point_norm_is_ray_parameter():
    entry = cone_over_veronese()
    for p in [(1.0, 2.0, 0.5), (0.7, 4.0, 1.3), (2.1, 1.0, 2.0)]:
        x = eval_immersion_values(entry.spec, p)
        assert math.sqrt(sum(v * v for v in x)) == pytest.approx(p[2], abs=1e-12)


def test_degenerate_curve_refused():
    # z -> (z, z, z) vanishes at z = 0 inside the default box
    with pytest.raises(DegenerateCurve):
        hopf_lift_curve(polys=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), name="bad")


def test_random_lorentz_properties():
    eta = np.diag([-1.0] + [1.0] * 6)
    for seed in (1, 2, 3, 4, 5):
        T = random_lorentz(seed)
        assert np.max(np.abs(T.T @ eta @ T - eta)) < 1e-12
        assert T[0, 0] > 0
        check_lorentz(T)
    assert not np.allclose(random_lorentz(1), random_lorentz(2))
    assert np.allclose(random_lorentz(9), random_lorentz(9))


def test_check_lorentz_rejects():
    with pytest.raises(NotLorentz):
        check_lorentz(np.eye(7) * 1.01)
    bad = np.diag([-1.0] + [1.0] * 6)  # reverses time orientation
    with pytest.raises(NotLorentz):
        check_lorentz(bad)
