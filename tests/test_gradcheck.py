"""Finite-difference oracle for every differentiable op: one test per case
of ``gazecast.checks.GRAD_CASES``, the registry that ``gazecast check``
also runs.

Inputs are drawn away from non-smooth points: ReLU kinks and max-pool ties
are excluded by construction (offsets keep values off 0 / apart from ties).
"""

from gazecast.checks import GRAD_CASES


def _fd_test(case):
    def test():
        result = case.run()
        assert result.passed, result.line()

    return test


# one module-level test per case, test_grad_<name>, so each case keeps a
# stable test id
for _case in GRAD_CASES:
    globals()[f"test_grad_{_case.name}"] = _fd_test(_case)
