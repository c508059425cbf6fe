"""Catalogue construction, solved energies, identity grid, serialization."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

import nlsenergy
from nlsenergy import energy as energy_module
from nlsenergy.algebra import (Density, Monomial, density_from_text,
                               density_to_text, dt_linear)
from nlsenergy.energy import (EnergyDocumentError, Family,
                              InfeasibleSystemError, _assemble,
                              basic_density, build_catalogue,
                              correction_density, cubic_density,
                              cubic_monomial, dispersive_reducer,
                              energy_hash, export_energy, hamiltonian_density,
                              import_energy, quadratic_density,
                              save_energy, solve_energy,
                              verify_exact_conservation, verify_identities)
from nlsenergy.rational import GaussianRational
from nlsenergy.reduction import (MonomialClass, SectorReducer, classify,
                                 ibp_generators)

DATA = Path(__file__).parent / "data"


# -- catalogue --------------------------------------------------------------

@pytest.mark.parametrize("k,size", [
    (2, 3), (3, 7), (4, 7), (5, 7), (6, 11), (7, 11), (8, 11),
])
def test_catalogue_size(k, size):
    assert len(build_catalogue(k, 2)) == size


def test_catalogue_names_and_order():
    names = [e.name for e in build_catalogue(6, 2)]
    assert names == [
        "aligned_u[1]", "mixed_u[1]", "mixed_c[1]",
        "aligned_u[2]", "aligned_c[2]", "mixed_u[2]", "mixed_c[2]",
        "aligned_u[3]", "aligned_c[3]", "mixed_u[3]", "mixed_c[3]",
    ]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_catalogue_entries_live_in_the_correction_class(k):
    p = 2
    for entry in build_catalogue(k, p):
        assert entry.density.is_real_valued
        assert entry.density.signatures() == {(p + 1, p + 1, 2 * k - 2)}
        if k == 3 and entry.name == "mixed_c[2]":
            # lone candidate with an order-k factor; the solver never
            # selects it (its weight is pinned to zero at k == 3)
            continue
        for m in entry.density.monomials():
            assert classify(m, k, p) is MonomialClass.CORRECTION, entry.name


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
    (2, 2): {"aligned_u[1]": "2", "mixed_u[1]": "6", "mixed_c[1]": "0"},
    (2, 3): {"aligned_u[1]": "3", "mixed_u[1]": "8", "mixed_c[1]": "0"},
    (3, 2): {"aligned_u[1]": "2", "mixed_u[1]": "9", "mixed_c[1]": "-18",
             "aligned_u[2]": "0", "aligned_c[2]": "0",
             "mixed_u[2]": "0", "mixed_c[2]": "0"},
    (3, 3): {"aligned_u[1]": "3", "mixed_u[1]": "12", "mixed_c[1]": "-36",
             "aligned_u[2]": "0", "aligned_c[2]": "0",
             "mixed_u[2]": "0", "mixed_c[2]": "0"},
    (4, 2): {"aligned_u[1]": "2", "mixed_u[1]": "12", "mixed_c[1]": "-24",
             "aligned_u[2]": "-14/3", "aligned_c[2]": "-72",
             "mixed_u[2]": "0", "mixed_c[2]": "0"},
    (5, 2): {"aligned_u[1]": "2", "mixed_u[1]": "15", "mixed_c[1]": "-30",
             "aligned_u[2]": "-23", "aligned_c[2]": "-75",
             "mixed_u[2]": "-270", "mixed_c[2]": "0"},
    (6, 2): {"aligned_u[1]": "2", "mixed_u[1]": "18", "mixed_c[1]": "-36",
             "aligned_u[2]": "-34", "aligned_c[2]": "-108",
             "mixed_u[2]": "-456", "mixed_c[2]": "210",
             "aligned_u[3]": "0", "aligned_c[3]": "0",
             "mixed_u[3]": "0", "mixed_c[3]": "0"},
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


def test_solver_is_cached():
    assert solve_energy(3, 2) is solve_energy(3, 2)
    assert dispersive_reducer(3, 2) is dispersive_reducer(3, 2)


def test_duplicate_entry_pinned_to_zero_at_k2():
    # mixed_c[1] coincides with aligned_u[1] when k == 2; the tie-break
    # keeps the later column out of the solution
    for p in (2, 3):
        assert correction_density(Family.MIXED_C, 2, 1, p) == \
            correction_density(Family.ALIGNED_U, 2, 1, p)
        assert solve_energy(2, p).coefficients["mixed_c[1]"] == 0


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


@pytest.mark.parametrize("k,p", [(2, 2), (3, 2)])
def test_exact_derivative_equals_residuals_modulo_parts(k, p):
    energy = solve_energy(k, p)
    delta = energy.exact_derivative - energy.residual_density()
    for sig in sorted(delta.signatures()):
        part = Density.from_terms(
            (m, c) for m, c in delta.terms() if m.signature == sig)
        res = SectorReducer(ibp_generators(sig, sig[2])).reduce(part)
        assert res.residual.is_zero, f"sector {sig} leftover"


def test_hk_derivative_linear_part_integrates_to_zero():
    for k in (2, 3, 4):
        flow = dt_linear(Density.monomial((k,), (k,)))
        sig = (1, 1, 2 * k + 2)
        res = SectorReducer(ibp_generators(sig, sig[2])).reduce(flow)
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
    assert import_energy(json.dumps(export_energy(energy))) == energy
    target = tmp_path / "e32.json"
    save_energy(energy, target)
    assert import_energy(target) == energy


def test_frozen_document_matches_fresh_solve():
    energy = import_energy(DATA / "energy_5_2.json")
    assert energy == solve_energy(5, 2)
    assert energy_hash(energy) == \
        "2438b404f67284ba0f1c1d1b21a41e59982de15fdc7ae38b8a15bd7cf52630ab"


# energy_hash of every document on the k 2..8 x p {2,3} grid plus (12,2) and
# (12,4); a change to the symbolic layer that alters any document fails here
PINNED_HASHES = {
    (2, 2): "d8373e67e2547bd587f614052534a14408853845db216528ea237f2d5c533b8d",
    (2, 3): "67503b096e3f673fe91612efd8b0e23b5fbc08747d8fbfa3e3f28e96d77f310e",
    (3, 2): "365d2c3461b5b62163ac7baee68ebb9ba1e8ff37f4f0c3ce524ce6c12ccd4deb",
    (3, 3): "4f8fd125bc10de717ae1754d38e69139705a964191adde1f942ec0bb1c9b80a0",
    (4, 2): "4a5790a222494d992b5a5971f2907c9bdd22a2f8a7ece17f5fc37b01178d6c94",
    (4, 3): "e083a332a177e07b81305bb71af0d555b913dd24a7fe396d13302c2060cd7b26",
    (5, 2): "2438b404f67284ba0f1c1d1b21a41e59982de15fdc7ae38b8a15bd7cf52630ab",
    (5, 3): "dd712045c0a0f0ff6e752c331a77e5ab987988ff2ed1780cc19a6bfa98a54030",
    (6, 2): "545c5d4c74fa01ed8c3e9fc4ec736f20374f89d2b0cfe113545dcbcf56a954ad",
    (6, 3): "be10de27bafec996e1fdab30bbd495a849e6c2408f25ba0705e9cd0673d67dc6",
    (7, 2): "8116405d4707d436443e15baf070d11bb26907fc4da12b2f10c21246b06b2d6e",
    (7, 3): "77e1be2b9e5f91fd77b7d680bee1a491d40f6b8bf1ba1fc4fc0fa81081c82991",
    (8, 2): "2051210d741db0c1192ddc2b8067bb1f37e1d4262be177c8a400f1e8d7447713",
    (8, 3): "ce4f50acd5f3880dcd04184d95e59b47d8fce5594bb0fa16a2d1df6a76653d5f",
    (12, 2): "a69d267c131f4174582e99f7470b956619f63f9fb0b14275abbb071b8d993a46",
    (12, 4): "7dbd64078b0199c33d8ef48aeb010ee9978882323cd2db9ef945c02580eec64b",
}


@pytest.mark.parametrize("k,p", sorted(PINNED_HASHES))
def test_energy_hash_is_pinned(k, p):
    assert energy_hash(solve_energy(k, p)) == PINNED_HASHES[(k, p)]


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


def _zero_denominator(doc):
    doc["coefficients"]["aligned_u[1]"] = "1/0"


def _infinite_cubic(doc):
    doc["cubic_coeff"] = float("inf")


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


@pytest.mark.parametrize("mutate", [
    _flip_coefficient, _bump_cubic, _scale_correction, _swap_exact_derivative,
    _future_version, _rename_coefficient, _drop_correction, _k_as_text, _k_below_two,
    _other_p, _zero_denominator, _infinite_cubic, _reorder_exact_derivative,
    _unreduced_quartic_coefficient,
])
def test_import_rejects_tampered_documents(mutate):
    doc = export_energy(solve_energy(3, 2))
    mutate(doc)
    with pytest.raises(EnergyDocumentError):
        import_energy(doc)


def test_import_rejects_a_document_without_a_derived_field():
    doc = export_energy(solve_energy(3, 2))
    del doc["residual_theta"]
    with pytest.raises(EnergyDocumentError, match="malformed"):
        import_energy(doc)


def test_import_parses_only_the_correction(monkeypatch):
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return density_from_text(text)

    doc = export_energy(solve_energy(4, 2))
    monkeypatch.setattr(energy_module, "density_from_text", counting_parse)
    import_energy(doc)
    assert parsed == [doc["F_k"]]


def test_import_rejects_malformed_json():
    with pytest.raises(EnergyDocumentError):
        import_energy('{"schema_version": 1,')


def test_import_rejects_unreadable_files(tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"k": "\xe9"}')
    with pytest.raises(EnergyDocumentError):
        import_energy(latin1)
    with pytest.raises(EnergyDocumentError):
        import_energy(tmp_path / "missing.json")


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


def test_import_accepts_equivalent_rewrites_of_the_correction():
    energy = solve_energy(4, 2)
    shift = _parts_shift(Monomial((2, 2, 0), (1, 0, 0))).re_part()
    shifted = _assemble(4, 2, energy.coefficients, energy.correction + shift)
    doc = export_energy(shifted)
    imported = import_energy(doc)
    assert imported == shifted
    assert imported != energy
    assert imported.coefficients == energy.coefficients
    # the quartic residual may be re-expressed, but only by total derivatives
    diff = imported.residual_quartic - energy.residual_quartic
    res = SectorReducer(ibp_generators((3, 3, 8), 8)).reduce(diff)
    assert res.residual.is_zero


def test_import_builds_the_correction_sector_reducer_once(monkeypatch):
    built = []

    def counting_generators(sector, order, **kwargs):
        built.append(sector)
        return ibp_generators(sector, order, **kwargs)

    monkeypatch.setattr(energy_module, "ibp_generators", counting_generators)
    energy_module._correction_ibp_reducer.cache_clear()
    energy = solve_energy(4, 2)
    shift = _parts_shift(Monomial((2, 2, 0), (1, 0, 0))).re_part()
    rewritten = export_energy(_assemble(4, 2, energy.coefficients,
                                        energy.correction + shift))
    scaled = export_energy(energy)
    _scale_correction(scaled)
    # both documents' F_k differ from the catalogue combination
    import_energy(rewritten)
    with pytest.raises(EnergyDocumentError):
        import_energy(scaled)
    assert built.count((3, 3, 6)) == 1


# -- solver invariants are explicit exceptions --------------------------------

def _patched_solver(monkeypatch, second_call=None, every_call=None):
    """Wrap _solve_pinned: `second_call` edits the reverse-order solve,
    `every_call` edits both."""
    original = energy_module._solve_pinned
    calls = []

    def wrapped(rows, n, column_order):
        solution, leftover = original(rows, n, column_order)
        calls.append(column_order)
        if every_call is not None:
            solution, leftover = every_call(solution, leftover)
        if second_call is not None and len(calls) == 2:
            solution, leftover = second_call(solution, leftover)
        return solution, leftover

    monkeypatch.setattr(energy_module, "_solve_pinned", wrapped)


def _bump_cubic_weight(solution, leftover):
    return solution[:-1] + [solution[-1] + 1], leftover


def _solve_uncached(k, p):
    return energy_module._solve_energy_cached.__wrapped__(k, p)


def test_reverse_order_leftover_raises(monkeypatch):
    _patched_solver(monkeypatch, second_call=lambda s, left: (s, [([Fraction(0)], 1)]))
    with pytest.raises(InfeasibleSystemError, match="reverse pivot order"):
        _solve_uncached(3, 2)


def test_tie_break_dependent_cubic_weight_raises(monkeypatch):
    _patched_solver(monkeypatch, second_call=_bump_cubic_weight)
    with pytest.raises(InfeasibleSystemError, match="depends on the tie-break") as info:
        _solve_uncached(3, 2)
    assert info.value.residual == cubic_density(3, 2) * -1


def test_cubic_coefficient_mismatch_raises(monkeypatch):
    _patched_solver(monkeypatch, every_call=_bump_cubic_weight)
    with pytest.raises(InfeasibleSystemError, match="differs from the solved weight") as info:
        _solve_uncached(3, 2)
    assert info.value.residual == cubic_density(3, 2) * -1


def test_unpatched_solver_passes_its_invariant_checks():
    assert _solve_uncached(3, 2) == solve_energy(3, 2)


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must be exceptions
    found = []
    for path in sorted(Path(nlsenergy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
