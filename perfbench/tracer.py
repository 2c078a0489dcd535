"""Spans around fsqsim's public functions, installed from outside the program.

Each wrapped function records one span per call: its name, start, end and
parent span. A function that other modules import by name is replaced in
every loaded ``fsqsim`` module (and class) that holds it, so calls made
through any of those names are seen. The right-hand side handed to
``dopri5`` is wrapped per call, which gives the RHS evaluation count and
hence the integrator's step attempts.

Spans stay in memory in flat arrays and are aggregated when the run ends:
``<span>.calls`` counts calls and ``<span>.s`` is self time, the span's
duration minus the time covered by its child spans.
"""

import functools
import importlib
import pkgutil
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute path). Methods are given as Class.method.
TARGETS = [
    ("kernels.dopri5", "fsqsim._kernels._lindblad_py", "dopri5"),
    ("kernels.propagate", "fsqsim._kernels", "propagate"),
    ("lindblad.evolve_rho", "fsqsim.lindblad", "evolve_rho"),
    ("lindblad.evolve_lindblad", "fsqsim.lindblad", "evolve_lindblad"),
    ("channels.channel_on_pairs", "fsqsim.channels", "channel_on_pairs"),
    ("channels.channel_superoperator", "fsqsim.channels",
     "channel_superoperator"),
    ("rydberg.sector_unitaries", "fsqsim.rydberg", "sector_unitaries"),
    ("twoq.GateExecutor", "fsqsim.benchmarking.twoq", "GateExecutor.__init__"),
    ("twoq.global_pulse", "fsqsim.benchmarking.twoq",
     "GateExecutor.global_pulse"),
    ("twoq.bell_protocol", "fsqsim.benchmarking.twoq", "bell_protocol"),
    ("psd.mc_gate_infidelity", "fsqsim.psd", "mc_gate_infidelity"),
    ("psd.sample_detuning_trajectory", "fsqsim.psd",
     "sample_detuning_trajectory"),
    ("psd.gate_fidelity_with_detuning", "fsqsim.psd",
     "gate_fidelity_with_detuning"),
    ("ramsey.simulate_ramsey", "fsqsim.benchmarking.ramsey", "simulate_ramsey"),
    ("assembly.simulate_assembly", "fsqsim.assembly", "simulate_assembly"),
    ("assembly.plan_rearrangement", "fsqsim.assembly", "plan_rearrangement"),
    ("readout.calibrated", "fsqsim.readout", "PhotonCountModel.calibrated"),
    ("readout.optimal_threshold", "fsqsim.readout",
     "PhotonCountModel.optimal_threshold"),
    ("readout.survival_function", "fsqsim.readout",
     "PhotonCountModel.survival_function"),
    ("readout.roc_sweep", "fsqsim.readout", "roc_sweep"),
    ("readout.srd_detect", "fsqsim.readout", "srd_detect"),
    ("singleq.run_crb", "fsqsim.benchmarking.singleq", "run_crb"),
    ("singleq.raman_pulse_channel", "fsqsim.benchmarking.singleq",
     "raman_pulse_channel"),
    ("cli.main", "fsqsim.cli", "main"),
]
RHS = "kernels.rhs"
PROTOCOL = "cli.protocol"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.matrices = 0  # sum of batch sizes handed to propagate
        self.missing = []
        self._stack = []  # open spans; the workloads run single-threaded

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None):
        """``fn`` recording one span per call; ``before(args)`` runs first
        and may return replacement positional arguments."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            stack = self._stack
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def _wrap_rhs(self, args):
        return (self.wrap(RHS, args[0]),) + tuple(args[1:])

    def _count_batch(self, args):
        self.matrices += int(np.shape(args[0])[0])
        return args

    def install(self):
        """Wrap every target at every place it can be looked up from."""
        import fsqsim

        for info in pkgutil.walk_packages(fsqsim.__path__, "fsqsim."):
            importlib.import_module(info.name)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fsqsim" or n.startswith("fsqsim.")]
        before = {"kernels.dopri5": self._wrap_rhs,
                  "kernels.propagate": self._count_batch}
        for name, modname, attr in TARGETS:
            owner = importlib.import_module(modname)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, leaf,
                        classmethod(self.wrap(name, raw.__func__,
                                              before.get(name))))
                continue
            wrapped = self.wrap(name, raw, before.get(name))
            if cls_path:
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
        cli = sys.modules["fsqsim.cli"]
        for key, fn in list(cli.PROTOCOLS.items()):
            cli.PROTOCOLS[key] = self.wrap(PROTOCOL, fn)

    def metrics(self):
        """Per-span call counts and self times, plus the kernel counters."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        seconds = np.bincount(ids, weights=self_time, minlength=n)
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[k])
            out[f"{name}.s"] = float(seconds[k])
        rhs = self._ids.get(RHS)
        steps = 0.0
        if rhs is not None:
            # Each dopri5 call makes one initial RHS evaluation and six per
            # step attempt (FSAL), so attempts = (evaluations - 1) / 6.
            is_rhs = ids == rhs
            per_call = np.bincount(parent[is_rhs], minlength=len(dur))
            dopri = ids == self._ids["kernels.dopri5"]
            steps = float(np.sum(np.maximum(per_call[dopri] - 1, 0)) / 6.0)
        out["kernels.dopri5.steps"] = steps
        out["kernels.propagate.matrices"] = self.matrices
        return out

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
