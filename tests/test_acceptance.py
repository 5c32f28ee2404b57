"""One test per headline guarantee, each answered by `acsplit.verify` entries.

Every property is asserted once, by the predicate of its `verify.CHECKS`
entry; a criterion here passes when all of its entries pass.  The entries'
results are shared with `test_check_passes`, so nothing runs twice.
`acsplit verify all` prints the same per-claim report with measured numbers.
"""

from acsplit import verify

CRITERIA = {
    "convergence_order": ["vector/second-order-rate"],
    "vector_maximum_principle": ["vector/max-principle"],
    "vector_energy_dissipation": ["vector/modified-energy-monotone"],
    "matrix_maximum_principle": ["matrix/max-principle", "matrix/star-defect-collapses"],
    "matrix_energy_dissipation": ["matrix/modified-energy-monotone"],
    "propagators_match_rk4_oracle": ["vector/closed-form-vs-rk4", "matrix/closed-form-vs-rk4"],
    "norm_identity_and_frobenius_bound": [
        "vector/norm-identity", "matrix/frobenius-ball-invariance",
    ],
    "inequality_suites": ["vector/concavity-inequality", "matrix/taylor-inequality"],
    "energy_gap_linear_in_tau": [
        "vector/energy-gap-linear-in-tau", "matrix/energy-gap-linear-in-tau",
    ],
}


def _assert_entries(check_result, criterion: str) -> None:
    for name in CRITERIA[criterion]:
        ok, detail = check_result(name)
        assert ok, f"{name}: {detail}"


def test_criterion_01_convergence_order(check_result):
    _assert_entries(check_result, "convergence_order")


def test_criterion_02_vector_maximum_principle(check_result):
    _assert_entries(check_result, "vector_maximum_principle")


def test_criterion_03_vector_energy_dissipation(check_result):
    _assert_entries(check_result, "vector_energy_dissipation")


def test_criterion_04_matrix_maximum_principle(check_result):
    _assert_entries(check_result, "matrix_maximum_principle")


def test_criterion_05_matrix_energy_dissipation(check_result):
    _assert_entries(check_result, "matrix_energy_dissipation")


def test_criterion_06_propagators_match_rk4_oracle(check_result):
    _assert_entries(check_result, "propagators_match_rk4_oracle")


def test_criterion_07_norm_identity_and_frobenius_bound(check_result):
    _assert_entries(check_result, "norm_identity_and_frobenius_bound")


def test_criterion_08_inequality_suites(check_result):
    _assert_entries(check_result, "inequality_suites")


def test_criterion_09_energy_gap_linear_in_tau(check_result):
    _assert_entries(check_result, "energy_gap_linear_in_tau")


def test_criteria_name_registry_entries():
    for names in CRITERIA.values():
        assert set(names) <= set(verify.CHECKS)
