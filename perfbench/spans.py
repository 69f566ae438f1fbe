"""Spans recorded from outside the package, and the per-layer metrics made from them.

`Tracer.install()` replaces each traced function at every name it is looked up
by: module attributes (modules import one another's functions by name) and
class attributes for methods.  Every call of a wrapped function records a span
(function, parent span, call index, start, end) in memory; a few functions also
record attributes read off their arguments or result.  `uninstall()` puts the
originals back.

Helpers that run in the innermost loops (`hs_inner`, `dagger`, the norms,
`vec`/`unvec`, `as_*` validators, `qchannel_element`) are not wrapped: a span
costs about a microsecond, more than some of them, so their time stays in the
self time of the wrapped function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("cli", "serialization", "fixedpoint", "channels", "contextuality",
          "operators", "cvmodels")

_CHANNEL_METHODS = ("__init__", "apply_schrodinger", "apply_heisenberg")

TRACED = {
    "operators": ("partial_trace", "partial_transpose", "hermitian_basis",
                  "simultaneous_diagonalize", "commutator_defect", "eig_hermitian"),
    "channels": ("apply", "choi_transform", "choi_to_kraus", "symmetrize",
                 "symmetric_lift", "channel_matrix", "swap_unitary")
                + tuple(f"KrausChannel.{m}" for m in _CHANNEL_METHODS)
                + tuple(f"ChoiChannel.{m}" for m in _CHANNEL_METHODS)
                + tuple(f"MeasurePrepareChannel.{m}" for m in _CHANNEL_METHODS + ("choi",))
                + tuple(f"SymmetricLift.{m}" for m in _CHANNEL_METHODS),
    "fixedpoint": ("fixed_space", "cesaro_apply", "psi0_matrix", "broadcasting_product",
                   "choi_effros_compare", "atomic_decomposition", "fixedpoint_report",
                   "BroadcastingAlgebra.__init__", "BroadcastingAlgebra.project",
                   "BroadcastingAlgebra.product"),
    "contextuality": ("check_states", "broadcaster_from_commuting", "pvm_embed",
                      "check_measurements_feasibility", "approx_check",
                      "extend_effect_functional", "FeasibilityProblem.__init__",
                      "FeasibilityProblem.project_affine", "FeasibilityProblem.project_psd",
                      "FeasibilityProblem.project_ppt", "FeasibilityProblem.residuals",
                      "FeasibilityProblem.choi_from_coords"),
    "cvmodels": ("qchannel_element_quadrature", "qchannel_build", "qchannel_fixed_analysis",
                 "shift_channel_build", "shift_channel_study", "hermite_functions",
                 "binned_position_pvm", "repair_to_commuting_projections",
                 "position_embedding_sweep", "sweep_rows_to_csv",
                 "TruncatedChannel.__init__", "TruncatedChannel.apply",
                 "TruncatedChannel.apply_schrodinger", "TruncatedChannel.apply_heisenberg",
                 "TruncatedChannel.choi"),
    "serialization": ("operator_to_json", "operator_from_json", "channel_to_json",
                      "channel_from_json", "dumps_report", "load_json_file", "io_roundtrip"),
    "cli": ("main",),
}


def _apply_bytes(args, kwargs, result):
    # operand bytes of one `action @ vec(t)`: the action, the operand, the result
    return {"bytes": args[0].action.nbytes + 2 * result.nbytes}


def _feasibility(args, kwargs, result):
    return {"d": args[0].dim, "cycles": result.cycles, "status": result.status}


def _psi0_method(args, kwargs, result):
    return {"method": kwargs.get("method", args[1] if len(args) > 1 else "spectral")}


def _report_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


ATTRIBUTES = {
    "cvmodels.TruncatedChannel.apply": _apply_bytes,
    "contextuality.check_measurements_feasibility": _feasibility,
    "fixedpoint.psi0_matrix": _psi0_method,
    "serialization.dumps_report": _report_bytes,
}


class Recorder:
    """Spans kept in memory: tuples (function id, parent index, call, start_ns, end_ns)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list = []
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.call = -1

    def wrap(self, name: str, fn, attributes=None):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, attrs, clock = self.spans, self.stack, self.attrs, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, parent, self.call, t0, t1)
            if attributes is not None:
                attrs[idx] = attributes(args, kwargs, result)
            return result

        return wrapper

    def take(self) -> "Trace":
        """Hand over the spans recorded so far and start a fresh list."""
        trace = Trace(list(self.names), list(self.spans), dict(self.attrs))
        self.spans.clear()  # the wrappers hold these containers
        self.attrs.clear()
        return trace


class Tracer:
    """Installs `Recorder` wrappers over the package's traced functions."""

    def __init__(self, recorder: Recorder, package: str = "broadcastlab", traced=None):
        self.recorder = recorder
        self.package = package
        self.traced = TRACED if traced is None else traced
        self._undo: list = []

    def install(self):
        pkg = importlib.import_module(self.package)
        modules = [pkg] + [importlib.import_module(f"{self.package}.{m}") for m in self.traced]
        for layer, names in self.traced.items():
            home = importlib.import_module(f"{self.package}.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = owner.__dict__[attr]
                wrapper = self.recorder.wrap(key, original, ATTRIBUTES.get(key))
                if owner_name:
                    self._set(owner, attr, wrapper)
                    continue
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Trace:
    """The spans of one pass, with inclusive and self times."""

    def __init__(self, names, spans, attrs):
        self.names = names
        self.spans = spans
        self.attrs = attrs
        self.by_name: dict[str, list[int]] = {}
        self.self_ns = [0] * len(spans)
        for i, (fid, parent, _, t0, t1) in enumerate(spans):
            self.by_name.setdefault(names[fid], []).append(i)
            self.self_ns[i] += t1 - t0
            if parent >= 0:
                self.self_ns[parent] -= t1 - t0

    def _indices(self, names):
        return [i for n in names for i in self.by_name.get(n, ())]

    def calls(self, *names) -> int:
        return len(self._indices(names))

    def inclusive_s(self, *names) -> float:
        """Busy time of the named functions: spans nested inside another span of
        the same set are covered by it and not counted again."""
        fids = {fid for fid, n in enumerate(self.names) if n in names}
        total = 0
        for i in self._indices(names):
            parent = self.spans[i][1]
            while parent >= 0 and self.spans[parent][0] not in fids:
                parent = self.spans[parent][1]
            if parent < 0:
                total += self.spans[i][4] - self.spans[i][3]
        return total * 1e-9

    def self_s(self, *names) -> float:
        return sum(self.self_ns[i] for i in self._indices(names)) * 1e-9

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_ns[i] for n, idx in self.by_name.items()
                   if n.startswith(prefix) for i in idx) * 1e-9

    def where(self, name, **match) -> list[int]:
        return [i for i in self.by_name.get(name, ())
                if all(self.attrs.get(i, {}).get(k) == v for k, v in match.items())]

    def attr_sum(self, name, key) -> float:
        return sum(self.attrs.get(i, {}).get(key, 0) for i in self.by_name.get(name, ()))

    def duration_s(self, i: int) -> float:
        return (self.spans[i][4] - self.spans[i][3]) * 1e-9

    def to_json(self) -> dict:
        return {"names": self.names,
                "fields": ["function", "parent", "call", "start_ns", "end_ns"],
                "spans": self.spans,
                "attrs": {str(i): a for i, a in self.attrs.items()}}


FEAS = "contextuality.check_measurements_feasibility"
APPLY = "cvmodels.TruncatedChannel.apply"
APPLY_HEISENBERG = tuple(f"channels.{c}.apply_heisenberg" for c in
                         ("KrausChannel", "ChoiChannel", "MeasurePrepareChannel", "SymmetricLift"))
CYCLE_DIMS = (2, 3, 4, 5)


def _cycle_ms(t: Trace, d: int) -> float:
    """Mean time of one Dykstra cycle on the stalled searches at dimension d."""
    idx = t.where(FEAS, d=d, status="infeasible_stalled")
    cycles = sum(t.attrs[i]["cycles"] for i in idx)
    return 1e3 * sum(t.duration_s(i) for i in idx) / cycles if cycles else 0.0


def _per_call_bytes(t: Trace) -> float:
    calls = t.calls(APPLY)
    return t.attr_sum(APPLY, "bytes") / calls if calls else 0.0


def _feasible_ratio(t: Trace) -> float:
    attempts = t.calls(FEAS)
    return len(t.where(FEAS, status="feasible")) / attempts if attempts else 0.0


def _calls(*names):
    return lambda t: t.calls(*names)


def _incl(*names):
    return lambda t: t.inclusive_s(*names)


def _self(*names):
    return lambda t: t.self_s(*names)


def _psi0(method):
    return lambda t: sum(map(t.duration_s, t.where("fixedpoint.psi0_matrix", method=method)))


FP = "contextuality.FeasibilityProblem."
TC = "cvmodels.TruncatedChannel."

# name -> (unit, function of one pass's Trace)
LAYER_METRICS = {
    "cvmodels.truncated_apply_calls": ("count", _calls(APPLY)),
    "cvmodels.truncated_apply_s": ("s", _incl(APPLY)),
    "cvmodels.apply_bytes_computed": ("B", _per_call_bytes),
    "cvmodels.truncated_init_s": ("s", _incl(TC + "__init__")),
    "cvmodels.truncated_choi_s": ("s", _incl(TC + "choi")),
    "cvmodels.shift_channel_build_s": ("s", _incl("cvmodels.shift_channel_build")),
    "cvmodels.qchannel_build_s": ("s", _incl("cvmodels.qchannel_build")),
    "cvmodels.qchannel_fixed_analysis_self_s": ("s", _self("cvmodels.qchannel_fixed_analysis")),
    "cvmodels.shift_channel_study_self_s": ("s", _self("cvmodels.shift_channel_study")),
    "cvmodels.quadrature_s": ("s", _incl("cvmodels.qchannel_element_quadrature")),
    "cvmodels.position_sweep_s": ("s", _incl("cvmodels.position_embedding_sweep")),
    "contextuality.dykstra_cycles": ("count", lambda t: t.attr_sum(FEAS, "cycles")),
    "contextuality.dykstra_self_s": ("s", _self(FEAS)),
    **{f"contextuality.cycle_ms.d{d}": ("ms", functools.partial(_cycle_ms, d=d))
       for d in CYCLE_DIMS},
    "contextuality.project_psd_s": ("s", _incl(FP + "project_psd")),
    "contextuality.project_ppt_s": ("s", _incl(FP + "project_ppt")),
    "contextuality.project_affine_s": ("s", _incl(FP + "project_affine")),
    "contextuality.residuals_self_s": ("s", _self(FP + "residuals")),
    "contextuality.feasible_ratio": ("ratio", _feasible_ratio),
    "contextuality.feasibility_setup_s": ("s", _incl(FP + "__init__")),
    "operators.hermitian_basis_s": ("s", _incl("operators.hermitian_basis")),
    "operators.partial_trace_calls": ("count", _calls("operators.partial_trace")),
    "operators.partial_trace_s": ("s", _incl("operators.partial_trace")),
    "operators.partial_transpose_s": ("s", _incl("operators.partial_transpose")),
    "fixedpoint.fixedpoint_report_s": ("s", _incl("fixedpoint.fixedpoint_report")),
    "fixedpoint.fixed_space_calls": ("count", _calls("fixedpoint.fixed_space")),
    "fixedpoint.fixed_space_s": ("s", _incl("fixedpoint.fixed_space")),
    "fixedpoint.psi0_spectral_s": ("s", _psi0("spectral")),
    "fixedpoint.psi0_cesaro_s": ("s", _psi0("cesaro")),
    "fixedpoint.algebra_init_self_s": ("s", _self("fixedpoint.BroadcastingAlgebra.__init__")),
    "fixedpoint.algebra_project_calls": ("count", _calls("fixedpoint.BroadcastingAlgebra.project")),
    "fixedpoint.atomic_decomposition_s": ("s", _incl("fixedpoint.atomic_decomposition")),
    "channels.channel_matrix_calls": ("count", _calls("channels.channel_matrix")),
    "channels.channel_matrix_s": ("s", _incl("channels.channel_matrix")),
    "channels.apply_heisenberg_calls": ("count", _calls(*APPLY_HEISENBERG)),
    "channels.choi_channel_init_s": ("s", _incl("channels.ChoiChannel.__init__")),
    "channels.choi_to_kraus_s": ("s", _incl("channels.choi_to_kraus")),
    "contextuality.check_states_s": ("s", _incl("contextuality.check_states")),
    "contextuality.pvm_embed_s": ("s", _incl("contextuality.pvm_embed")),
    "contextuality.approx_check_s": ("s", _incl("contextuality.approx_check")),
    "operators.simultaneous_diagonalize_s": ("s", _incl("operators.simultaneous_diagonalize")),
    "operators.commutator_defect_s": ("s", _incl("operators.commutator_defect")),
    "serialization.dumps_report_s": ("s", _incl("serialization.dumps_report")),
    "serialization.report_bytes": ("B", lambda t: t.attr_sum("serialization.dumps_report", "bytes")),
    "serialization.load_json_file_s": ("s", _incl("serialization.load_json_file")),
    "serialization.from_json_s": ("s", _incl("serialization.operator_from_json",
                                             "serialization.channel_from_json")),
    "serialization.to_json_s": ("s", _incl("serialization.operator_to_json",
                                           "serialization.channel_to_json")),
    "cli.main_calls": ("count", _calls("cli.main")),
    "cli.self_s": ("s", _self("cli.main")),
    **{f"{layer}.layer_self_s": ("s", functools.partial(Trace.layer_self_s, layer=layer))
       for layer in LAYERS if layer != "cli"},
}

# counts that must repeat exactly from pass to pass, and between runs of one seed
EXACT_COUNTS = ("contextuality.dykstra_cycles", "cvmodels.truncated_apply_calls",
                "channels.apply_heisenberg_calls", "serialization.report_bytes",
                "operators.partial_trace_calls", "fixedpoint.fixed_space_calls",
                "fixedpoint.algebra_project_calls", "channels.channel_matrix_calls",
                "cli.main_calls")


def span_cost_ns(n: int = 20000) -> float:
    """Added cost of one span: a wrapped no-op minus the bare no-op, per call."""
    def noop():
        return None

    wrapped = Recorder().wrap("calibrate.noop", noop)
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(n):
        noop()
    t1 = clock()
    for _ in range(n):
        wrapped()
    t2 = clock()
    return ((t2 - t1) - (t1 - t0)) / n


def layer_metrics(trace: Trace) -> dict:
    return {name: float(fn(trace)) for name, (_, fn) in LAYER_METRICS.items()}
