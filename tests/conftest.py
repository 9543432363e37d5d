"""Shared pytest hooks: no test may leave a thread alive, and a
per-criterion summary for the acceptance suite.

The one thread the package starts is ``compare``'s preparing worker; it
must be joined before the call that started it returns or raises.

Every acceptance criterion maps to one or more test functions in
``test_acceptance.py``.  After a run that touched any of them, the terminal
summary prints one PASS/FAIL line per criterion so the whole contract can
be audited at a glance.  Expected failures (documented limitations of the
simulation, marked strict-xfail in the suite) are reported as FAIL with a
note, never silently folded into a pass.
"""

import threading

import pytest

ACCEPTANCE_FILE = "test_acceptance.py"
#: How long a thread that outlived its test may take to finish ending.
THREAD_END_S = 1.0


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    before = set(threading.enumerate())
    yield
    new = [t for t in threading.enumerate() if t not in before]
    for t in new:  # one that has returned may still be on its way out
        t.join(THREAD_END_S)
    alive = [t.name for t in new if t.is_alive()]
    assert not alive, f"threads left alive: {alive}"


ACCEPTANCE_CRITERIA = (
    ("permutation counts for sources without a rising edge",
     ("test_permutation_counts_for_sources_without_an_edge",)),
    ("completion-time count matches exhaustive enumeration",
     ("test_completion_time_count_matches_exhaustive_enumeration",)),
    ("analytic edge model matches long simulations",
     ("test_analytic_edge_model_matches_long_simulation",)),
    ("edge-count distribution is exact",
     ("test_edge_count_distribution_is_exact",)),
    ("AES vectors and last-round hypothesis identity",
     ("test_aes_vectors_and_last_round_hypothesis_identity",)),
    ("CPA soundness on the fixed clock",
     ("test_cpa_soundness_on_the_fixed_clock",)),
    ("randomized clock multiplies the attack cost",
     ("test_randomized_clock_multiplies_the_attack_cost",)),
    ("edge totals and period diversity at the reference length",
     ("test_edge_totals_and_period_diversity_at_reference_length",
      "test_claimed_busiest_set_has_the_most_edges")),
    ("overhead ordering and error-risk threshold",
     ("test_mean_overhead_ordering_and_fast_set_error_risk",
      "test_error_risk_is_zero_for_all_study_sets")),
    ("spectrum fundamentals and energy conservation",
     ("test_spectrum_fundamentals_dominate_and_energy_is_conserved",
      "test_nearly_equal_fundamentals_resolve_into_three_peaks")),
    ("duplication bounds and overlap exploitation",
     ("test_candidate_bounds_overlap_rate_and_exploit_gain",)),
    ("determinism and round-trip",
     ("test_same_config_and_seed_reproduce_artifacts_exactly",)),
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[str, set[str]] = {}
    for bucket in ("passed", "failed", "error", "xfailed", "xpassed",
                   "skipped"):
        for rep in terminalreporter.stats.get(bucket, []):
            nodeid = getattr(rep, "nodeid", "")
            if ACCEPTANCE_FILE not in nodeid:
                continue
            name = nodeid.split("::")[-1].split("[")[0]
            outcomes.setdefault(name, set()).add(bucket)
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number, (title, names) in enumerate(ACCEPTANCE_CRITERIA, start=1):
        seen: set[str] = set()
        for name in names:
            seen |= outcomes.get(name, {"missing"})
        if seen & {"failed", "error", "xpassed"}:
            status, red = "FAIL", True
        elif "missing" in seen or "skipped" in seen:
            status, red = "NOT RUN", False
        elif "xfailed" in seen:
            status, red = "FAIL (expected: documented limitation)", True
        else:
            status, red = "PASS", False
        terminalreporter.write_line(
            f"criterion {number:2d} {status}: {title}",
            red=red, green=not red and status == "PASS")
