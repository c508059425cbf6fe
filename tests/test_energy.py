"""Catalogue construction, solved energies, identity grid, serialization."""

import ast
import contextlib
import copy
import dataclasses
import gc
import hashlib
import json
import pickle
import re
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlsenergy
from echelon_oracle import enumerate_monomials
from nlsenergy import algebra as algebra_module
from nlsenergy import energy as energy_module
from nlsenergy.algebra import (Density, Monomial, density_from_text,
                               density_to_text, dt_linear, dt_nonlinear)
from nlsenergy.energy import (FAMILY_ORDER, POWER_IMAGE_REFERENCE,
                              CorrectionReductionError, EnergyDocumentError, Family,
                              InfeasibleSystemError, _assemble,
                              _check_kp, basic_density, build_catalogue,
                              correction_density, cubic_density,
                              cubic_monomial, dispersive_reducer,
                              energy_hash, export_energy, hamiltonian_density,
                              import_energy, quadratic_density,
                              save_energy, solve_energy,
                              verify_exact_conservation, verify_identities)
from nlsenergy.harness import RunConfig, compile_plans, initial_state, observe
from nlsenergy.rational import GaussianRational
from nlsenergy.reduction import (MonomialClass, SectorReducer, classify,
                                 reduce_by_sector)

DATA = Path(__file__).parent / "data"


# -- catalogue --------------------------------------------------------------

@pytest.mark.parametrize("k,size", [
    (2, 2), (3, 3), (4, 5), (5, 6), (6, 7), (7, 9), (8, 10),
])
def test_catalogue_size(k, size):
    assert len(build_catalogue(k, 2)) == size


def test_catalogue_names_and_order():
    names = [e.name for e in build_catalogue(6, 2)]
    assert names == [
        "aligned_u[1]", "mixed_u[1]", "mixed_c[1]",
        "aligned_u[2]", "aligned_c[2]", "mixed_u[2]", "mixed_c[2]",
    ]


def test_each_family_stops_at_its_own_top_index():
    # with k = 3m + r, index m+1 loses the entries no energy contains: all
    # four families when r = 0, mixed_u and mixed_c when r = 1, mixed_c
    # when r = 2
    for k in range(2, 40):
        m, r = divmod(k, 3)
        tops = {"aligned_u": m + (r > 0), "aligned_c": m + (r > 0),
                "mixed_u": m + (r == 2), "mixed_c": m}
        want = [f"{family}[{h}]" for h in range(1, m + 2) for family in tops
                if h <= tops[family] and (family, h) != ("aligned_c", 1)]
        assert [e.name for e in build_catalogue(k, 2)] == want, k


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_catalogue_entries_live_in_the_correction_class(k):
    p = 2
    for entry in build_catalogue(k, p):
        assert entry.density.is_real_valued
        assert entry.density.signatures() == {(p + 1, p + 1, 2 * k - 2)}
        for m in entry.density.monomials():
            assert classify(m, k, p) is MonomialClass.CORRECTION, entry.name


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_only_the_top_mixed_entry_at_k3_leaves_the_correction_class(p):
    # of the candidates up to index k//3 + 1, only mixed_c[2] at k=3 has an
    # order-k factor; it lies above its family's top index, so no catalogue
    # entry leaves the class and verify_identities expands no power image
    def outside(density, k):
        return any(classify(m, k, p) is not MonomialClass.CORRECTION
                   for m in density.monomials())

    candidates = [(k, f"{family.value}[{h}]") for k in range(2, 31)
                  for h in range(1, k // 3 + 2) for family in FAMILY_ORDER
                  if outside(correction_density(family, k, h, p), k)]
    assert candidates == [(3, "mixed_c[2]")]
    assert [(k, entry.name) for k in range(2, 31) for entry in build_catalogue(k, p)
            if outside(entry.density, k)] == []


def test_basic_density_shapes():
    assert basic_density(Family.ALIGNED_U, 3, 1, 2) == \
        Density.monomial((2, 2, 2), (0, 0, 0)).im_part()
    assert basic_density(Family.MIXED_U, 4, 1, 2) == \
        Density.monomial((3, 3, 0), (2, 0, 0)).im_part()
    assert basic_density(Family.ALIGNED_C, 4, 2, 2) == \
        Density.monomial((2, 2, 0), (4, 0, 0)).im_part()
    assert basic_density(Family.MIXED_C, 4, 2, 2) == \
        Density.monomial((2, 0, 0), (5, 1, 0)).im_part()


def test_correction_density_shapes():
    assert correction_density(Family.ALIGNED_U, 4, 2, 2) == \
        Density.monomial((2, 2, 2), (0, 0, 0)).re_part()
    assert correction_density(Family.MIXED_C, 4, 2, 2) == \
        Density.monomial((3, 2, 0), (1, 0, 0)).re_part()


def test_out_of_range_indices_rejected():
    with pytest.raises(ValueError):
        basic_density(Family.ALIGNED_U, 2, 3, 2)    # negative top order
    with pytest.raises(ValueError):
        correction_density(Family.MIXED_U, 4, 0, 2)
    with pytest.raises(ValueError):
        build_catalogue(1, 2)
    with pytest.raises(ValueError):
        build_catalogue(3, 1)


def test_check_kp_bounds_the_product():
    for k, p in [(75, 2), (50, 3), (3, 50)]:
        _check_kp(k, p)
    # the last pair fails its type check before any product: 2**70 * "2"
    # would be a string repeat
    for k, p in [(76, 2), (51, 3), (3, 51), (2 ** 70, 2), (3, 2 ** 70), (2 ** 70, "2")]:
        with pytest.raises(ValueError):
            _check_kp(k, p)


def test_fixed_densities():
    assert quadratic_density(3) == \
        Density.monomial((0,), (0,)) + Density.monomial((3,), (3,))
    assert hamiltonian_density(2) == \
        Density.monomial((1,), (1,)) \
        + Density.monomial((0, 0, 0), (0, 0, 0)) * Fraction(1, 3)


def test_cubic_monomial():
    assert cubic_monomial(6, 2) == Monomial((4, 4, 4), (0, 0, 0))
    assert cubic_monomial(3, 3) == Monomial((2, 2, 2, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        cubic_monomial(4, 2)


# -- solved coefficients (frozen oracle values) -----------------------------

GOLDEN = {
    (2, 2): {"aligned_u[1]": "2", "mixed_u[1]": "6"},
    (2, 3): {"aligned_u[1]": "3", "mixed_u[1]": "8"},
    (3, 2): {"aligned_u[1]": "2", "mixed_u[1]": "9", "mixed_c[1]": "-18"},
    (3, 3): {"aligned_u[1]": "3", "mixed_u[1]": "12", "mixed_c[1]": "-36"},
    (4, 2): {"aligned_u[1]": "2", "mixed_u[1]": "12", "mixed_c[1]": "-24",
             "aligned_u[2]": "-14/3", "aligned_c[2]": "-72"},
    (5, 2): {"aligned_u[1]": "2", "mixed_u[1]": "15", "mixed_c[1]": "-30",
             "aligned_u[2]": "-23", "aligned_c[2]": "-75", "mixed_u[2]": "-270"},
    (6, 2): {"aligned_u[1]": "2", "mixed_u[1]": "18", "mixed_c[1]": "-36",
             "aligned_u[2]": "-34", "aligned_c[2]": "-108",
             "mixed_u[2]": "-456", "mixed_c[2]": "210"},
}

CUBIC_GOLDEN = {(2, 2): 0, (3, 2): 2, (3, 3): 6, (4, 2): 0, (5, 2): 0,
                (6, 2): -2, (6, 3): -6}


@pytest.mark.parametrize("k,p", sorted(GOLDEN))
def test_solved_coefficients_match_golden(k, p):
    energy = solve_energy(k, p)
    assert {n: str(v) for n, v in energy.coefficients.items()} == GOLDEN[(k, p)]


@pytest.mark.parametrize("k,p", sorted(CUBIC_GOLDEN))
def test_cubic_coefficient_matches_golden(k, p):
    assert solve_energy(k, p).cubic_coefficient == CUBIC_GOLDEN[(k, p)]


def test_dispersive_reducer_is_cached():
    assert dispersive_reducer(3, 2) is dispersive_reducer(3, 2)


def test_solved_energy_is_released_with_its_last_reference():
    energy = solve_energy(4, 2)
    ref = weakref.ref(energy)
    del energy
    gc.collect()
    assert ref() is None


def test_the_k2_duplicate_is_not_in_the_catalogue():
    # mixed_c[1] coincides with aligned_u[1] when k == 2, and lies above
    # mixed_c's top index k//3 = 0
    for p in (2, 3):
        assert correction_density(Family.MIXED_C, 2, 1, p) == \
            correction_density(Family.ALIGNED_U, 2, 1, p)
        assert [e.name for e in build_catalogue(2, p)] == ["aligned_u[1]", "mixed_u[1]"]


# -- decomposition invariants -----------------------------------------------

@pytest.mark.parametrize("k,p", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_residuals_stay_in_their_classes(k, p):
    energy = solve_energy(k, p)
    for m in energy.correction.monomials():
        assert classify(m, k, p) is MonomialClass.CORRECTION
    for m in energy.residual_quartic.monomials():
        assert classify(m, k, p) is MonomialClass.QUARTIC_REMAINDER
    for m in energy.residual_nonlinear.monomials():
        assert classify(m, k, p) is MonomialClass.NONLINEAR_REMAINDER
    assert energy.correction.is_real_valued
    assert energy.residual_quartic.is_real_valued
    assert energy.residual_nonlinear.is_real_valued
    assert energy.exact_derivative.is_real_valued


@st.composite
def _correction_class_densities(draw):
    k, p = draw(st.integers(2, 8)), draw(st.integers(2, 4))
    # every order at most k-1 in the correction sector: the correction class
    monomials = enumerate_monomials((p + 1, p + 1, 2 * k - 2), k - 1)
    parts = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    picks = draw(st.lists(st.tuples(st.sampled_from(monomials),
                                    st.builds(GaussianRational, parts, parts)),
                          min_size=1, max_size=6))
    return k, p, sum((Density.monomial(m.u_orders, m.c_orders, c) for m, c in picks),
                     Density.zero())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_correction_class_densities())
def test_power_image_of_a_correction_lies_in_the_nonlinear_remainder_class(case):
    # _assemble takes dt_nonlinear(F) as residual_nonlinear without reducing
    # it, because F passed the correction-class guard; this is that implication
    k, p, correction = case
    assert all(classify(m, k, p) is MonomialClass.CORRECTION
               for m in correction.monomials())
    for m in dt_nonlinear(correction, p).monomials():
        assert classify(m, k, p) is MonomialClass.NONLINEAR_REMAINDER, m


@pytest.mark.parametrize("k,p", [(2, 2), (3, 2)])
def test_exact_derivative_equals_residuals_modulo_parts(k, p):
    energy = solve_energy(k, p)
    delta = energy.exact_derivative - energy.residual_density()
    for sig, residual in reduce_by_sector(delta).items():
        assert residual.is_zero, f"sector {sig} leftover"


def test_hk_derivative_linear_part_integrates_to_zero():
    for k in (2, 3, 4):
        flow = dt_linear(Density.monomial((k,), (k,)))
        sig = (1, 1, 2 * k + 2)
        res = SectorReducer(sig).reduce(flow)
        assert res.residual.is_zero


# -- identity grid and conservation -----------------------------------------

@pytest.mark.parametrize("k,p", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_identity_grid_small(k, p):
    report = verify_identities(k, p)
    assert report.all_passed, [c.identity for c in report.failures()]
    names = [c.identity for c in report.checks]
    assert "star[aligned_u[1]]" in names
    assert sum(n.startswith("starstar[") for n in names) == \
        len(build_catalogue(k, p))


@pytest.mark.parametrize("p", [2, 3])
def test_starstar_checks_agree_with_the_expanded_power_images(p):
    # verify_identities settles each entry's check by the lemma; this
    # oracle expands every image and classifies it term by term instead
    for k in range(2, 9):
        want = []
        for entry in build_catalogue(k, p):
            image = dt_nonlinear(entry.density, p)
            assert all(classify(m, k, p) is MonomialClass.NONLINEAR_REMAINDER
                       for m in image.monomials()), (k, entry.name)
            want.append((f"starstar[{entry.name}] in class", "class", True, True))
        got = [(c.identity, c.mode, c.passed, c.residual.is_zero)
               for c in verify_identities(k, p).checks if c.identity.startswith("starstar[")]
        assert got == want, k


def test_an_entry_outside_the_correction_class_fails_its_check_unexpanded(monkeypatch):
    k, p = 2, 2
    # the correction sector (3, 3, 2) with an order above k-1
    high = Density.monomial((2, 0, 0), (0, 0, 0)).re_part()
    # the sector (3, 3, 4)
    off = Density.monomial((2, 0, 0), (2, 0, 0))
    catalogue = build_catalogue(k, p)
    half = catalogue[0].density + high   # one term in the class, two outside
    monkeypatch.setattr(energy_module, "build_catalogue", lambda k_, p_: catalogue + [
        energy_module.CatalogueEntry(name, density)
        for name, density in (("high", high), ("off", off), ("half", half))])
    expanded = []

    def spy(density, p_):
        expanded.append(density)
        return dt_nonlinear(density, p_)

    monkeypatch.setattr(energy_module, "dt_nonlinear", spy)
    checks = {c.identity: c for c in verify_identities(k, p).checks}
    assert expanded == []
    for entry in catalogue:
        check = checks[f"starstar[{entry.name}] in class"]
        assert check.passed and check.residual.is_zero
    # the residual holds the entry's terms outside the correction class
    for name, outside in (("high", high), ("off", off), ("half", high)):
        check = checks[f"starstar[{name}] in class"]
        assert (check.mode, check.passed, check.residual) == ("class", False, outside)


def test_a_solved_correction_outside_the_class_is_refused_with_its_terms(monkeypatch):
    k, p = 2, 2
    # d[d^1 u u u conj(u)^3], a total derivative in the correction sector
    # (3, 3, 2) whose d^2 terms lie outside the class: added to mixed_u[1]
    # it leaves that entry's dispersive column as it is, so the system
    # solves, gives the entry its weight 6, and only the class guard of
    # `_assemble` can refuse the correction
    c = (0, 0, 0)
    derivative = (Density.monomial((2, 0, 0), c) + Density.monomial((1, 1, 0), c) * 2
                  + Density.monomial((1, 0, 0), (1, 0, 0)) * 3)
    aligned, mixed = build_catalogue(k, p)
    entry = energy_module.CatalogueEntry("outside", mixed.density + derivative.re_part())
    monkeypatch.setattr(energy_module, "build_catalogue", lambda k_, p_: [aligned, entry])
    with pytest.raises(CorrectionReductionError,
                       match="^correction term leaves the correction class") as info:
        solve_energy(k, p)
    check = {c.identity: c for c in verify_identities(k, p).checks}[
        "starstar[outside] in class"]
    assert not check.passed
    # the d^2 terms, and only they, in the guard's message and the residual
    assert {m.max_order for m in check.residual.monomials()} == {2}
    message = str(info.value)
    assert message.count("Monomial(") == len(check.residual) == 2
    assert all(repr(m) in message for m in check.residual.monomials())


def test_tampered_correction_fails_its_dispersive_identity():
    # star[aligned_u[1]] at (2, 2) with the correction negated: the checker
    # must see a nonzero residual where the true correction gives zero
    k, p = 2, 2

    def delta(sign):
        return dt_linear(correction_density(Family.ALIGNED_U, k, 1, p) * sign) \
            - basic_density(Family.ALIGNED_U, k, 0, p) * 2 \
            + basic_density(Family.ALIGNED_U, k, 1, p) * (2 * (p - 1))

    reducer = dispersive_reducer(k, p)
    assert reducer.reduce(delta(1)).residual.is_zero
    assert not reducer.reduce(delta(-1)).residual.is_zero


@pytest.mark.parametrize("p", [2, 3])
def test_mass_and_hamiltonian_conserved_exactly(p):
    for name, residual in verify_exact_conservation(p).items():
        assert residual.is_zero, name


# -- serialization ----------------------------------------------------------

def test_export_import_roundtrip(tmp_path):
    energy = solve_energy(3, 2)
    assert import_energy(export_energy(energy)) == energy
    target = tmp_path / "e32.json"
    save_energy(energy, target)
    assert import_energy(target) == energy


def test_frozen_document_matches_fresh_solve():
    energy = import_energy(DATA / "energy_5_2.json")
    assert energy == solve_energy(5, 2)
    assert energy_hash(energy) == \
        "dc1ffc609e152641dc291e0f5393c1380d5f224eb93726b88d66b3e07aaad0fe"


# energy_hash of every schema-3 document on the k 2..8 x p {2,3} grid plus
# (12,2) and (12,4); a change to the symbolic layer that alters any
# document fails here
PINNED_HASHES = {
    (2, 2): "3caff8e7dcfb505ffcbb9747b252d0eb9e2ac56b076d9f0ee88d8eb898582f4d",
    (2, 3): "1a2b106e93ba318646a8bbd3434377ac430d76f341c4d91de7bebe78eb3c3e12",
    (3, 2): "d0ddedd99f7c16a8c97d5efa0e6ec42deaa4fa133d4b32d511499f4ffd9aadb3",
    (3, 3): "555147ee5449071b2d11391f1daff4ca07ea5627e77363e71bdfcced4264c698",
    (4, 2): "263b0764685549ea88bc3057bc6144e9f6aa396d20f9dc435479256653f3b465",
    (4, 3): "a43ed354cb82ae8b236a8abe8cde0c3bfed84e093b15c57d8b0c9ff25cf878cf",
    (5, 2): "dc1ffc609e152641dc291e0f5393c1380d5f224eb93726b88d66b3e07aaad0fe",
    (5, 3): "7b1f825f24f35a43467ee9b2cd1869fb3d7c17d6e8b8bc6f1f872484470dcffd",
    (6, 2): "3557a15bcbdc61c3ea320435128920fd84573070e357ad49539736c0a938e981",
    (6, 3): "732a75f1ca56ce348002b961ed7265968fbca66650029a63b3803bd9641b1258",
    (7, 2): "1c157bd6024daed3954ded775220576d23e0dbc646709c3bec85de8e30d0fe2c",
    (7, 3): "6c144a97981d43927e5f9904d8798aadb4054ed65226bc5220cf8a85ae6e0189",
    (8, 2): "98ea7c207be8b5f73e70b2eac17c8d5770a6c648c3b01663ac6f48fc0aba0565",
    (8, 3): "c0e37cef665fa1877a98856af68c01a020d3b264520743aab2fecac011439361",
    (12, 2): "47274799a88a9ff5b4aaf37e591a30789afc986e29cb3a74a0200e6bf8948efd",
    (12, 4): "77f2bc4053a209b979243127921f3fcf92eafba4677d65073fad422342af2bbe",
}

# the same cells' hashes in schema 2, whose catalogue held the top-index
# entries that no energy contains
SCHEMA_2_HASHES = {
    (2, 2): "eef680e6e9ce733ad6b679fdfb46dd4c4d8f1a630539530fae6c21d6eec1a6da",
    (2, 3): "5107854205f216788b4c38c5b7ece4e4dfd58a8c308a6f34dcec8bad4a5eeff7",
    (3, 2): "764bc3c2a80a5fc00d4272e3c03d9ca05b30583b8748e489bedf413526af9371",
    (3, 3): "de5adb44286b14c7a9b89d72de05672efba75c749f01ffa379e5c1120129dd7b",
    (4, 2): "2ce798996a5d6feb2859c84691554028082c554f7e776ecbd37e5391bc459909",
    (4, 3): "00d38d67f03e2a4b306b75d5bca0fdfe71d948b75caebb098734bbaa0a107991",
    (5, 2): "f70fd65ec3cfad1eee9c5b4a56e08cbc6d4f6a668adf59c91e76e3cbfffd9156",
    (5, 3): "c4258ae020e72801907742e56b84e6b3fa91eb3af2a6c31cb8a32531e9ada775",
    (6, 2): "0eba3ef1db2c1fddd6b08394f2639d323470be925344e29f52eeb65fd967ab0a",
    (6, 3): "4195cabac1df128d918134bd6177ed67aa545de43fe83660263556a09c69bb98",
    (7, 2): "684bcd53d0fd8d030c967019857cd89693890524db889689f77f76b8922ab7a8",
    (7, 3): "569066d0c7dbb287a931b1c7c55eda2cb2f8fb60ff4880b26e6da55b95312ba4",
    (8, 2): "dceba3e2828876f09e0860e31fab8418e06d34093894a14888e23e148335fbb5",
    (8, 3): "0f690e8bc42dc9a5252cedce2b06c03f08c7295d22794114ff37bfdbaf48eab8",
    (12, 2): "e9ac5167b1a1c1d541e39f5ee69ab90e143e9dbd5d14467cec235e9594f1d34d",
    (12, 4): "fe81298a35bb81d69dc6e1c0d757afd8a2506f4be33d4251befd01662031379c",
}


def _schema_2_document(energy):
    """The document the schema-2 export wrote: the coefficients of the
    entries at index k//3 + 1 too, each 0, in catalogue order."""
    k = energy.k
    doc = export_energy(energy)
    names = [f"{family.value}[{h}]" for h in range(1, k // 3 + 2) for family in FAMILY_ORDER
             if (h, family) != (1, Family.ALIGNED_C)]
    doc["schema_version"] = 2
    doc["coefficients"] = {name: doc["coefficients"].get(name, "0") for name in names}
    return doc


@pytest.mark.parametrize("k,p", sorted(PINNED_HASHES))
def test_energy_hash_is_pinned(k, p):
    energy = solve_energy(k, p)
    assert energy_hash(energy) == PINNED_HASHES[(k, p)]
    # schema 3 drops only the top-index coefficients, all 0, from schema 2
    blob = json.dumps(_schema_2_document(energy), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SCHEMA_2_HASHES[(k, p)]


def test_a_solved_energy_survives_copy_and_pickle():
    energy = solve_energy(12, 4)
    for twin in (copy.deepcopy(energy), pickle.loads(pickle.dumps(energy))):
        assert twin == energy
        assert energy_hash(twin) == PINNED_HASHES[(12, 4)]


def _flip_coefficient(doc):
    doc["coefficients"]["aligned_u[1]"] = "-2"


def _bump_cubic(doc):
    doc["cubic_coeff"] = "7"


def _scale_correction(doc):
    doc["F_k"] = density_to_text(density_from_text(doc["F_k"]) * 3)


def _swap_exact_derivative(doc):
    doc["exact_derivative"] = doc["residual_theta"]


def _future_version(doc):
    doc["schema_version"] = 99


def _rename_coefficient(doc):
    doc["coefficients"] = {"zz" if n == "aligned_u[1]" else n: v
                           for n, v in doc["coefficients"].items()}


def _drop_correction(doc):
    del doc["F_k"]


def _k_as_text(doc):
    doc["k"] = "2"


def _k_below_two(doc):
    doc["k"] = 1


def _other_p(doc):
    doc["p"] = 3


# the next three are past MAX_KP: without the bound p = 2**70 overflowed a
# tuple repeat and k = 2**70 built a catalogue that never ended; k = 76
# puts k * p at 152

def _huge_p(doc):
    doc["p"] = 2 ** 70


def _huge_k(doc):
    doc["k"] = 2 ** 70


def _k_past_the_bound(doc):
    doc["k"] = 76


def _zero_denominator(doc):
    doc["coefficients"]["aligned_u[1]"] = "1/0"


def _infinite_cubic(doc):
    doc["cubic_coeff"] = float("inf")


# a decimal exponent: Fraction alone would spend seconds building an int
# of ten million digits before any check could refuse the text

def _exponent_coefficient(doc):
    doc["coefficients"]["mixed_u[1]"] = "1e10000000"


def _exponent_cubic(doc):
    doc["cubic_coeff"] = "1e10000000"


# the next two leave each density equal, but its text is no longer the
# canonical text of the recomputation

def _reorder_exact_derivative(doc):
    terms = doc["exact_derivative"].split(" + ")
    terms[0], terms[1] = terms[1], terms[0]
    doc["exact_derivative"] = " + ".join(terms)


def _unreduced_quartic_coefficient(doc):
    head, sep, tail = doc["residual_omega"].partition(" * ")
    im = GaussianRational.from_text(head).im  # the (3,2) quartic residual is imaginary
    doc["residual_omega"] = f"{2 * im.numerator}/{2 * im.denominator}*i{sep}{tail}"


# the next six state the same energy as the export, in other text or JSON;
# the export of the recomputation is the one accepted form

def _reorder_correction(doc):
    terms = doc["F_k"].split(" + ")
    terms[0], terms[1] = terms[1], terms[0]
    doc["F_k"] = " + ".join(terms)


def _unreduced_coefficient(doc):
    value = Fraction(doc["coefficients"]["mixed_u[1]"])
    doc["coefficients"]["mixed_u[1]"] = f"{2 * value.numerator}/{2 * value.denominator}"


def _coefficient_as_number(doc):
    doc["coefficients"]["mixed_u[1]"] = int(doc["coefficients"]["mixed_u[1]"])


def _unreduced_cubic(doc):
    value = Fraction(doc["cubic_coeff"])
    doc["cubic_coeff"] = f"{2 * value.numerator}/{2 * value.denominator}"


def _extra_key(doc):
    doc["note"] = "hand-edited"


def _version_as_float(doc):
    doc["schema_version"] = float(doc["schema_version"])


@pytest.mark.parametrize("mutate", [
    _flip_coefficient, _bump_cubic, _scale_correction, _swap_exact_derivative,
    _future_version, _rename_coefficient, _drop_correction, _k_as_text, _k_below_two,
    _other_p, _zero_denominator, _infinite_cubic, _reorder_exact_derivative,
    _unreduced_quartic_coefficient, _reorder_correction, _unreduced_coefficient,
    _coefficient_as_number, _unreduced_cubic, _extra_key, _version_as_float,
    _huge_p, _huge_k, _k_past_the_bound, _exponent_coefficient, _exponent_cubic,
])
def test_import_rejects_tampered_documents(mutate):
    doc = export_energy(solve_energy(3, 2))
    mutate(doc)
    with pytest.raises(EnergyDocumentError):
        import_energy(doc)


@pytest.mark.parametrize("mutate", [_exponent_coefficient, _exponent_cubic])
def test_import_refuses_an_exponent_before_reading_it(mutate, monkeypatch):
    # the text is refused by its form, before Fraction parses it
    doc = export_energy(solve_energy(3, 2))
    mutate(doc)
    parsed = []
    monkeypatch.setattr(energy_module, "Fraction",
                        lambda *args: parsed.append(args) or Fraction(*args))
    with pytest.raises(EnergyDocumentError, match="not a fraction n or n/d: '1e10000000'"):
        import_energy(doc)
    assert ("1e10000000",) not in parsed


# JSON-like values: ints far past any bound, a number no float holds,
# floats with nan and inf, bools, strings, lists, objects and null
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.just(10 ** 400)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_import_takes_any_value_in_a_field_or_refuses_it(data):
    doc = export_energy(solve_energy(3, 2))
    doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(_JSON_VALUES)
    with contextlib.suppress(EnergyDocumentError):
        import_energy(doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_config_takes_any_value_in_a_field_or_refuses_it(data):
    fields = dataclasses.asdict(RunConfig())
    fields[data.draw(st.sampled_from(sorted(fields)))] = data.draw(_JSON_VALUES)
    with contextlib.suppress(ValueError):
        RunConfig.from_dict(fields)


def _schema_1_document(energy):
    """The document the schema-1 export wrote: the power image written out."""
    doc = _schema_2_document(energy)
    image = density_to_text(energy.residual_nonlinear)
    doc["schema_version"] = 1
    doc["residual_theta"] = image
    doc["exact_derivative"] = doc["exact_derivative"].replace(POWER_IMAGE_REFERENCE, image)
    return doc


def test_import_refuses_a_schema_1_document():
    energy = solve_energy(3, 2)
    doc = _schema_1_document(energy)
    assert doc["exact_derivative"] == density_to_text(energy.exact_derivative)
    with pytest.raises(EnergyDocumentError, match="unsupported schema_version 1 "):
        import_energy(doc)


def test_import_refuses_a_schema_2_document():
    doc = _schema_2_document(solve_energy(3, 2))
    with pytest.raises(EnergyDocumentError,
                       match=r"^unsupported schema_version 2 \(expected 3\)$"):
        import_energy(doc)


# schema 3 keeps schema 2's reference to the power image
@pytest.mark.parametrize("fields", [("residual_theta",), ("exact_derivative",),
                                    ("residual_theta", "exact_derivative")])
def test_import_refuses_a_schema_2_document_with_the_image_written_out(fields):
    energy = solve_energy(3, 2)
    expanded = _schema_1_document(energy)
    doc = export_energy(energy)
    for field in fields:
        doc[field] = expanded[field]
    with pytest.raises(EnergyDocumentError, match=", ".join(fields)):
        import_energy(doc)


@pytest.mark.parametrize("p", [2, 3])
def test_the_reference_expands_to_the_expanded_derivative(p):
    # the reference loses nothing: on the acceptance grid, the image's text in
    # place of the reference gives the text of each expanded density
    for k in range(2, 9):
        energy = solve_energy(k, p)
        doc = export_energy(energy)
        image = density_to_text(dt_nonlinear(density_from_text(doc["F_k"]), p))
        assert doc["residual_theta"] == POWER_IMAGE_REFERENCE
        assert image == density_to_text(energy.residual_nonlinear)
        assert doc["exact_derivative"].replace(POWER_IMAGE_REFERENCE, image) == \
            density_to_text(energy.exact_derivative), k


def test_solve_export_import_and_records_never_expand_a_correction_image(monkeypatch):
    expanded = []
    substituted = algebra_module._substituted

    def spy(density, image):
        if image is not algebra_module._linear_image:
            expanded.append(density)
        return substituted(density, image)

    monkeypatch.setattr(algebra_module, "_substituted", spy)
    for k, p in ((6, 2), (5, 3)):
        energy = import_energy(export_energy(solve_energy(k, p)))
        config = RunConfig(k=k, p=p, n_modes=16, seed=1)
        observe(initial_state(config), 0.0, energy, config,
                compile_plans(energy, config.n_modes))
        # the power part of d/dt |d^k u|^2, once for the solve and once for
        # the import's recomputation, is the only power image expanded
        assert expanded == [Density.monomial((k,), (k,))] * 2
        assert not all(classify(m, k, p) is MonomialClass.CORRECTION
                       for m in expanded[0].monomials())
        # the spy sees an expansion where there is one: the oracle's
        expanded.clear()
        assert not energy.residual_nonlinear.is_zero
        assert expanded == [energy.correction]
        expanded.clear()


def test_import_rejects_a_document_without_a_derived_field():
    doc = export_energy(solve_energy(3, 2))
    del doc["residual_theta"]
    with pytest.raises(EnergyDocumentError, match="malformed"):
        import_energy(doc)


def test_import_rejects_malformed_json(tmp_path):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"schema_version": 1,')
    with pytest.raises(EnergyDocumentError):
        import_energy(truncated)


def test_import_rejects_unreadable_files(tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"k": "\xe9"}')
    with pytest.raises(EnergyDocumentError):
        import_energy(latin1)
    with pytest.raises(EnergyDocumentError):
        import_energy(tmp_path / "missing.json")
    # nested past the parser's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    with pytest.raises(EnergyDocumentError, match="malformed energy document"):
        import_energy(deep)


# the power part of d/dt |d^4 u|^2 at p = 2, which _assemble takes
_POWER_4_2 = dt_nonlinear(Density.monomial((4,), (4,)), 2)


def _parts_shift(base):
    """Full single-derivative expansion of a product, as a density."""
    out = Density.zero()
    for idx in range(len(base.u_orders)):
        out = out + Density.monomial(
            base.u_orders[:idx] + (base.u_orders[idx] + 1,) + base.u_orders[idx + 1:],
            base.c_orders)
    for idx in range(len(base.c_orders)):
        out = out + Density.monomial(
            base.u_orders,
            base.c_orders[:idx] + (base.c_orders[idx] + 1,) + base.c_orders[idx + 1:])
    return out


def test_import_rejects_an_equivalent_rewrite_of_the_correction():
    energy = solve_energy(4, 2)
    shift = _parts_shift(Monomial((2, 2, 0), (1, 0, 0))).re_part()
    # a total derivative inside the correction sector: the same energy
    # modulo integration by parts, but not the one the coefficients state
    assert SectorReducer((3, 3, 6)).reduce(shift).residual.is_zero
    shifted = _assemble(4, 2, energy.coefficients, energy.cubic_coefficient,
                        energy.correction + shift, _POWER_4_2)
    with pytest.raises(EnergyDocumentError, match="F_k"):
        import_energy(export_energy(shifted))


def test_rejecting_a_perturbed_coefficient_builds_no_reducer_row(monkeypatch):
    doc = export_energy(solve_energy(4, 2))
    doc["coefficients"]["mixed_u[1]"] = str(Fraction(doc["coefficients"]["mixed_u[1]"]) + 1)
    built = []
    build_row = SectorReducer._row

    def counting_row(reducer, lead):
        built.append(lead)
        return build_row(reducer, lead)

    monkeypatch.setattr(SectorReducer, "_row", counting_row)
    # a cached reducer's rows would hide a build; its next user rebuilds them
    for value in vars(energy_module).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    with pytest.raises(EnergyDocumentError, match="F_k"):
        import_energy(doc)
    assert built == []


# -- solver invariants are explicit exceptions --------------------------------

def _spied_solver(monkeypatch, edit=None):
    """Wrap _solve, record (columns, rhs) of each call, and let `edit`
    change what it is given and what it returns."""
    original = energy_module._solve
    calls = []

    def wrapped(columns, rhs):
        calls.append((columns, rhs))
        if edit is None:
            return original(columns, rhs)
        return edit(original, columns, rhs)

    monkeypatch.setattr(energy_module, "_solve", wrapped)
    return calls


def _rank(columns):
    """The rank of the columns over the reals, by Fractions: each monomial
    gives a row of real parts and a row of imaginary parts."""
    rows = []
    for m in set().union(*(column.monomials() for column in columns)):
        cells = [column.coefficient(m) for column in columns]
        rows += [[c.re for c in cells], [c.im for c in cells]]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)] for r in rows]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [2, 3])
def test_the_cancellation_system_is_full_rank(monkeypatch, p):
    # one elimination per solve, and every column, the cubic one last when
    # 3 | k, lies outside the span of the others: the solution is unique.
    # Every column and the right-hand side is i times a real density, so
    # the solver may work on the imaginary parts alone
    calls = _spied_solver(monkeypatch)
    for k in range(2, 15):
        solve_energy(k, p)
        (columns, rhs), = calls
        calls.clear()
        assert len(columns) == len(build_catalogue(k, p)) + (k % 3 == 0), k
        assert _rank(columns) == len(columns), k
        assert all(c.re == 0 for density in (*columns, rhs) for _, c in density.terms()), k


@pytest.mark.parametrize("k,p,replaced,name,residual", [
    # at (3, 2) the cubic column replaced by a copy of aligned_u[1]'s
    (3, 2, -1, "the cubic term", cubic_density(3, 2)),
    # at (2, 2) mixed_u[1]'s column replaced by a copy of aligned_u[1]'s
    (2, 2, 1, "mixed_u[1]", build_catalogue(2, 2)[1].density),
], ids=["cubic", "catalogue"])
def test_a_column_without_a_pivot_raises(monkeypatch, k, p, replaced, name, residual):
    def dependent(solve, columns, rhs):
        columns = list(columns)
        columns[replaced] = columns[0]
        return solve(columns, rhs)

    _spied_solver(monkeypatch, dependent)
    with pytest.raises(InfeasibleSystemError, match=f"not full rank: the column of "
                                                    rf"{re.escape(name)} lies") as info:
        solve_energy(k, p)
    assert info.value.residual == residual


def test_cubic_coefficient_mismatch_raises(monkeypatch):
    def bump_cubic_weight(solve, columns, rhs):
        values = solve(columns, rhs)
        n = len(columns)
        return {**values, n - 1: values[n - 1] + 1}

    _spied_solver(monkeypatch, bump_cubic_weight)
    with pytest.raises(InfeasibleSystemError, match=r"^dispersive-sector remainder "
                                                    r"nonzero for \(k=3, p=2\)") as info:
        solve_energy(3, 2)
    # the one extra weight of the cubic term is the remainder, and the
    # cubic term is already reduced
    assert info.value.residual == cubic_density(3, 2) * -1


def test_a_solution_that_does_not_cancel_raises_with_its_remainder(monkeypatch):
    def bump_first_coefficient(solve, columns, rhs):
        values = solve(columns, rhs)
        return {**values, 0: values[0] + 1}

    _spied_solver(monkeypatch, bump_first_coefficient)
    with pytest.raises(InfeasibleSystemError, match="remainder nonzero") as info:
        solve_energy(4, 2)
    # the column of aligned_u[1], which the extra 1 adds to the remainder
    column = dispersive_reducer(4, 2).reduce(
        dt_linear(correction_density(Family.ALIGNED_U, 4, 1, 2))).residual
    assert not column.is_zero
    assert info.value.residual == column


def test_import_checks_the_identity_of_a_consistently_edited_document():
    # a coefficient moved and F_k rewritten to match pass every check before
    # the identity, which the stated coefficients and weight no longer satisfy
    doc = export_energy(solve_energy(3, 2))
    name = "aligned_u[1]"
    doc["coefficients"][name] = str(Fraction(doc["coefficients"][name]) + 1)
    coefficients = {n: Fraction(v) for n, v in doc["coefficients"].items()}
    doc["F_k"] = density_to_text(sum(
        (e.density * coefficients[e.name] for e in build_catalogue(3, 2)), Density.zero()))
    with pytest.raises(EnergyDocumentError, match="^inconsistent energy document: "
                                                  "dispersive-sector remainder nonzero"):
        import_energy(doc)


def test_import_refuses_a_cubic_weight_where_there_is_no_cubic_term(monkeypatch):
    doc = export_energy(solve_energy(4, 2))
    assert doc["cubic_coeff"] == "0"
    doc["cubic_coeff"] = "1"
    called = []
    monkeypatch.setattr(energy_module, "cubic_density",
                        lambda *args: called.append(args))
    with pytest.raises(EnergyDocumentError, match="^inconsistent energy document: "
                                                  "cubic weight 1 for"):
        import_energy(doc)
    assert called == []


def test_unpatched_solver_passes_its_invariant_checks():
    assert solve_energy(3, 2) == solve_energy(3, 2)


def _imported_modules(path: Path) -> set[str]:
    """The nlsenergy modules a module of the package imports from."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:   # from . import a, b
                    found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("nlsenergy."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("nlsenergy."))
    return found


@pytest.mark.parametrize("module,forbidden", [
    ("spectral", {"energy", "harness", "cli"}),
    *((module, {"spectral", "harness", "cli"})
      for module in ("rational", "algebra", "reduction", "energy")),
])
def test_modules_import_only_the_layers_below_them(module, forbidden):
    path = Path(nlsenergy.__file__).parent / f"{module}.py"
    assert not _imported_modules(path) & forbidden


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must be exceptions
    found = []
    for path in sorted(Path(nlsenergy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
