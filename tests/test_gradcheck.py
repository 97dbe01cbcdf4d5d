"""One test per row of the registry that ``gazecast check`` also runs:
``test_grad_<name>`` for each finite-difference case of
``gazecast.checks.GRAD_CASES`` and ``test_oracle_<name>`` for each
brute-force case of ``ORACLE_CASES``.

Gradient inputs are drawn away from non-smooth points: ReLU kinks and
max-pool ties are excluded by construction (offsets keep values off 0 /
apart from ties).
"""

from gazecast.checks import GRAD_CASES, ORACLE_CASES


def _case_test(case):
    def test():
        result = case.run()
        assert result.passed, result.line()

    return test


# one module-level test per row, so each row keeps a stable test id
for _prefix, _table in (("grad", GRAD_CASES), ("oracle", ORACLE_CASES)):
    for _case in _table:
        globals()[f"test_{_prefix}_{_case.name}"] = _case_test(_case)
