"""Full-depth acceptance suite.

Each test runs one verification check at its full advertised range and
prints a one-line PASS/FAIL summary; details of what every check covers
live in their docstrings in ncfree.verify.  These are the slow tests of
the repository (the whole file takes a few minutes).
"""
from ncfree import verify

CHECKS = verify.EXACT_CHECKS + (verify.RMT_CHECK,)


def _acceptance(number, check):
    def test():
        result = check()
        status = "PASS" if result.ok else "FAIL"
        print(f"ACCEPTANCE {number}/{len(CHECKS)} {result.name}: {status} "
              f"({result.detail}) [{result.seconds:.1f}s]")
        assert result.ok, f"{result.name}: {result.detail}"
    return test


# one test per check, in run order, under the names this suite has always
# reported; the unpacking fails at import if a check is added without one
(test_criterion_1_partition_counts,
 test_criterion_2_moment_cumulant_transforms,
 test_criterion_3_complement_dual_route,
 test_criterion_4_generator_free_poisson,
 test_criterion_5_word_trace_routes,
 test_criterion_6_mixed_cumulants_vanish,
 test_criterion_7_loop_bookkeeping,
 test_criterion_8_factor_parameters,
 test_criterion_9_monte_carlo) = (
    _acceptance(number, check) for number, check in enumerate(CHECKS, 1))


def test_every_exported_check_is_in_the_acceptance_run():
    # so that a new check cannot miss run_all or this file
    exported = sorted(name for name in verify.__all__ if name.startswith("check_"))
    assert sorted(check.__name__ for check in CHECKS) == exported
