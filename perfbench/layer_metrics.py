"""Per-layer metrics of one traced pass, named as in BENCHMARK.json.

Span names are ``<layer>.<function>`` for module functions,
``<layer>.<Class>`` for constructors and ``<layer>.<Class>.<method>`` for
methods.  Every metric is reported on every workload; a layer a workload
does not reach reads 0.
"""

from tracer import LAYERS, ROOT

CONFIGS = (
    "band", "bdg", "fubini", "gheat", "gpde", "isometry", "moments", "nested", "ou",
    "sigma_integral",
)

CALLS = {
    "operator_core.PsdOperator.calls": "operator_core.PsdOperator",
    "operator_core.SymOperator.calls": "operator_core.SymOperator",
    "operator_core.psd_sqrt.calls": "operator_core.psd_sqrt",
    "covariance_set.CovarianceSet.calls": "covariance_set.CovarianceSet",
    "covariance_set.g_eval.calls": "covariance_set.g_eval",
    "g_normal.static_upper_report.calls": "g_normal.static_upper_report",
    "control_sim.simulate_gbm.calls": "control_sim.simulate_gbm",
    "stoch_integral.integrate_elementary.calls": "stoch_integral.integrate_elementary",
    "stoch_integral.convolution_path.calls": "stoch_integral.convolution_path",
    "g_pde.value_at.calls": "g_pde.GridSolution.value_at",
    "g_pde.mc_value.calls": "g_pde.mc_value",
}

SELF_S = {
    "covariance_set.covset_contains.self_s": "covariance_set.covset_contains",
    "g_normal.static_upper_report.self_s": "g_normal.static_upper_report",
    "control_sim.simulate_gbm.self_s": "control_sim.simulate_gbm",
    "control_sim.estimate_upper_expectation.self_s": "control_sim.estimate_upper_expectation",
    "control_sim.nested_expectation.self_s": "control_sim.nested_expectation",
    "control_sim.lattice_1d.self_s": "control_sim.lattice_1d",
    "stoch_integral.integrate_elementary.self_s": "stoch_integral.integrate_elementary",
    "stoch_integral.convolution_path.self_s": "stoch_integral.convolution_path",
    "stoch_integral.sigma_of_integral.self_s": "stoch_integral.sigma_of_integral",
    "g_pde.residual_check.self_s": "g_pde.residual_check",
    "g_pde.value_at.self_s": "g_pde.GridSolution.value_at",
    "g_pde.mc_value.self_s": "g_pde.mc_value",
}

# counters kept by the tracer's hooks and reported as they are
COUNTS = (
    "g_normal.draws",
    "control_sim.path_steps",
    "control_sim.bytes_held",
    "stoch_integral.path_blocks",
    "g_pde.solve.n_steps",
    "g_pde.node_updates",
    "g_pde.bytes_held",
)


def _ratio(num, den):
    return num / den if den else 0.0


def from_tracer(tracer):
    totals = tracer.totals
    counters = tracer.counters
    metrics = {}
    for name, span in CALLS.items():
        metrics[name] = totals.get(span, (0,))[0]
    for name, span in SELF_S.items():
        metrics[name] = totals.get(span, (0, 0.0, 0.0))[2]
    for name in COUNTS:
        metrics[name] = counters.get(name, 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = 0
    for span, (calls, total, self_s, errors) in totals.items():
        layer = span.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += self_s
            metrics[f"{layer}.errors"] += errors
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value

    root_s = totals[ROOT][1]
    metrics["bench.self_s"] = totals[ROOT][2]
    metrics["bench.accounted_frac"] = (
        sum(layer_self.values()) + metrics["bench.self_s"]
    ) / root_s

    metrics["control_sim.path_steps_per_s"] = _ratio(
        counters.get("control_sim.path_steps", 0),
        counters.get("control_sim.simulate_gbm.total_s", 0.0),
    )
    metrics["control_sim.policies_per_sup"] = _ratio(
        counters.get("control_sim.policies_built", 0),
        totals.get("control_sim.build_policies", (0,))[0],
    )
    metrics["control_sim.distinct_sim_ratio"] = _ratio(
        len(tracer.sim_keys), metrics["control_sim.simulate_gbm.calls"]
    )
    for dim in (1, 2, 3):
        metrics[f"g_pde.solve.d{dim}.step_s"] = _ratio(
            counters.get(f"g_pde.solve.d{dim}.total_s", 0.0),
            counters.get(f"g_pde.solve.d{dim}.steps", 0),
        )
    metrics["g_pde.node_updates_per_s"] = _ratio(
        counters.get("g_pde.node_updates", 0), counters.get("g_pde.solve.total_s", 0.0)
    )
    metrics["g_pde.slice_use_ratio"] = _ratio(tracer.slices_read(), tracer.stored_slices)
    for stem in CONFIGS:
        metrics[f"experiment_cli.run.{stem}.s"] = counters.get(
            f"experiment_cli.run.{stem}.s", 0.0
        )
    return metrics
