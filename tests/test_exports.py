"""The package namespace: every name a module lists in its ``__all__`` is
importable from ``riskcounts``, declared once, in its own module."""

import riskcounts
from riskcounts import classical, cohort, comparison, distributions, figures, predictive, scenarios

MODULES = (distributions, comparison, predictive, classical, cohort, figures, scenarios)


def test_the_package_exports_each_modules_public_names_once():
    names = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert riskcounts.__all__ == list(dict.fromkeys(names))


def test_each_exported_name_is_its_modules_own_object():
    # the one analysis path for fixed and beta-uncertain risks alike
    assert riskcounts.ScenarioAnalysis is comparison.ScenarioAnalysis
    for module in MODULES:
        for name in module.__all__:
            assert getattr(riskcounts, name) is getattr(module, name), f"{module.__name__}.{name}"
