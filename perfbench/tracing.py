"""Spans around the lab's public functions and `_BatchTrainer` stages.

The tracer patches the module attributes (and trainer methods) that the lab
calls through, so the program itself is unchanged; on exit every original is
put back.  Spans are kept in memory: (id, name, start_ns, end_ns, parent_id).
"""

import json
import time

from celab import channel_sim, estimators, evaluation, harness, signal_model, structnet

TRAINER_STAGES = {
    "run_epochs": "run_epochs",
    "grads": "_grads",
    "mlp_forward": "_mlp_forward",
    "iil_modulo": "_iil_modulo",
    "iil_shifting": "_iil_shifting",
    "channel_out": "_channel_out",
    "loss": "loss",
}

# (owner, attribute, span name).  structnet binds estimate_ls at import, so
# its copy is wrapped under the estimators name too.
TARGETS = (
    (harness, "run_sweep", "harness.run_sweep"),
    (signal_model, "generate_transmit_grid", "signal_model.generate_transmit_grid"),
    (signal_model, "demodulate_hard", "signal_model.demodulate_hard"),
    (channel_sim, "sample_channel", "channel_sim.sample_channel"),
    (channel_sim, "apply_channel", "channel_sim.apply_channel"),
    (channel_sim, "analytic_freq_correlation", "channel_sim.analytic_freq_correlation"),
    (estimators, "estimate_ls", "estimators.estimate_ls"),
    (structnet, "estimate_ls", "estimators.estimate_ls"),
    (estimators, "lmmse_filter", "estimators.lmmse_filter"),
    (estimators, "estimate_em_lmmse", "estimators.estimate_em_lmmse"),
    (estimators, "update_empirical_correlation", "estimators.update_empirical_correlation"),
    (structnet, "estimate_channel_structnet", "structnet.estimate_channel_structnet"),
    *((structnet._BatchTrainer, attr, f"structnet.trainer.{stage}")
      for stage, attr in TRAINER_STAGES.items()),
    (evaluation, "equalize_lmmse", "evaluation.equalize_lmmse"),
    (evaluation, "compute_mse", "evaluation.compute_mse"),
    (evaluation, "compute_ber", "evaluation.compute_ber"),
)

SWEEP = "harness.run_sweep"


class Tracer:
    """Context manager that records one span per call of each target."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._saved = []

    def __enter__(self):
        wrapped = set()
        for owner, attr, name in self.targets:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
            wrapped.add(name)
        self.absent = [name for name in dict.fromkeys(n for _, _, n in self.targets)
                       if name not in wrapped]
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent))
        return traced

    def totals(self):
        """({name: busy ns}, {name: calls}, run_sweep ns outside its child spans)."""
        names = tuple(dict.fromkeys(name for _, _, name in self.targets))
        busy = dict.fromkeys(names, 0)
        calls = dict.fromkeys(names, 0)
        sweep_ids = set()
        for span_id, name, start, end, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if name == SWEEP:
                sweep_ids.add(span_id)
        child_ns = sum(end - start for _, _, start, end, parent in self.spans
                       if parent in sweep_ids)
        return busy, calls, busy[SWEEP] - child_ns

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
            for name in self.absent:
                fh.write(json.dumps({"absent": name}) + "\n")
