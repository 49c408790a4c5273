"""Leak localization toolkit for n-parallel-pipe water networks.

Every public name of the submodules is importable from the package, but
`import leakscope` loads none of them: the first use of a name imports its
module (PEP 562), so a CLI command loads only the modules it runs.
"""

import sys

# {module: its public names, which the package exports}
_MODULE_NAMES = {
    "headloss": "Linear PipeSet PowerLaw QuadraticPlusLinear SignedQuadratic "
    "UnboundedDerivativeError detect_inherent_ambiguity",
    "hydraulics": "DataPoint FixedDemand HydraulicState LeakSpec NoRootError PowerLawLeak "
    "SqrtLeak head_profile measure solve_leaky_state sweep",
    "isolation": "IsolationVerdict LeakFitResult TooFewPointsError apparent_leak_flow "
    "apparent_leak_head fit_leak_function isolate_by_consistency isolate_by_leak_fit",
    "localization": "LeakCandidate NoLeakError PartialDataPoint all_candidates "
    "candidate_position complete_data_point estimate_outflow residual residual_bar",
    "scenario": "Scenario ScenarioError parse_scenario",
    "sensitivity": "ConfusionFlowCurve SectionResistances confusion_flow_curve "
    "residual_differential section_resistances zero_dh_sensitivity",
}
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names.split()}
_SUBMODULES = {*_MODULE_NAMES, "cli"}

__all__ = [*_EXPORTS, "bundled_scenario"]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind `name` on its first use. An exported name is
    then stored in the package's globals, so later lookups never come here."""
    module = _EXPORTS.get(name)
    if module is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{module or name}"
    __import__(path)  # also binds the submodule in the package
    value = sys.modules[path]
    if module is not None:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})


def bundled_scenario(name: str):
    """Path to a bundled example scenario, e.g. ``bundled_scenario("example1")``."""
    from importlib.resources import files

    return files("leakscope") / "scenarios" / f"{name}.json"
