"""The benchmark's workloads: seeded configs, the timed call, and its output.

Each workload starts from one of the sample configs in ``configs/``. The
configs are embedded here, so editing a sample config does not move the
benchmark. Seed 0 gives the sample config itself (the audit workload also sets
its point count). Any other seed derives the sampling seeds (``plan.seed``,
``envelope.seed`` and the perturbation's ``direction_seed``) from it, so the
same seed always gives the same inputs. The program sees only the generated
config dicts.

Importing this module imports ``jensenlab`` from the checkout's ``src``
(see ``program``).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Callable

import program

program.load()

from jensenlab import bounds, direct_method, harness, space  # noqa: E402

DEFAULT_SEED = 0

#: Audited points per audit run; sized so that one run takes about as long as
#: one run of the other two workloads.
AUDIT_POINTS = 600

VERIFY_POWER_MEASURED = {
    "space": {"dim": 2, "norm": "l2"},
    "function": {
        "core": {"kind": "identity"},
        "perturbation": {"kind": "power", "theta": 0.1, "r": 0.5, "direction": "hashed",
                         "direction_seed": 5},
    },
    "params": {"family": "A", "rho1": [0.0, 0.0], "rho2": [0.3, 0.0], "alpha": 1.0},
    "scheme": {"direction": "forward"},
    "control": {"kind": "measured"},
    "plan": {"seed": 2, "count": 100, "radius": 2.0, "exclude_origin_below": 0.1},
    "envelope": {"count": 1000, "shells": 8},
    "tolerances": {"tol": 1e-9, "atol": 1e-12, "rtol": 1e-9},
    "audit": False,
}

SWEEP_FAMILY_A = {
    "space": {"dim": 2, "norm": "l2"},
    "function": {
        "core": {"kind": "identity"},
        "perturbation": {"kind": "power", "theta": 0.1, "r": 0.5, "direction_seed": 5},
    },
    "params": {"family": "A", "rho1": [0.0, 0.0], "rho2": [0.0, 0.0], "alpha": 1.0},
    "scheme": {"direction": "forward"},
    "control": {"kind": "power", "theta": 1.0, "r": 0.5},
    "plan": {"seed": 1, "count": 25, "radius": 2.0, "exclude_origin_below": 0.1},
    "grid": {
        "rho2": [[0.0, 0.0], [0.3, 0.0], [0.66, 0.0], [0.7, 0.0]],
        "r": [0.25, 0.5, 0.75],
    },
}

AUDIT_BACKWARD_DYADIC = {
    "space": {"dim": 2, "norm": "l2"},
    "function": {
        "core": {"kind": "identity"},
        "perturbation": {"kind": "power", "theta": 0.1, "r": 2.0, "direction_seed": 6},
    },
    "params": {"family": "A", "rho1": [0.0, 0.0], "rho2": [0.0, 0.0], "alpha": 1.0},
    "scheme": {"direction": "backward"},
    "control": {"kind": "power", "theta": 1.0, "r": 2.0},
    "plan": {"seed": 11, "count": 50, "radius": 2.0, "exclude_origin_below": 0.1},
}


def _derived_seed(workload: str, seed: int, field: str) -> int:
    return random.Random(f"{workload}:{seed}:{field}").randrange(1, 2**31)


def _reseed(doc: dict, workload: str, seed: int) -> dict:
    doc = copy.deepcopy(doc)
    if seed == DEFAULT_SEED:
        return doc
    doc["plan"]["seed"] = _derived_seed(workload, seed, "plan")
    doc["function"]["perturbation"]["direction_seed"] = _derived_seed(workload, seed, "direction")
    if "envelope" in doc:
        doc["envelope"]["seed"] = _derived_seed(workload, seed, "envelope")
    return doc


def run_audit(doc: dict):
    """The CLI ``audit`` path: build, draw the points, audit with a power control."""
    exp = harness.build_experiment(doc)
    ctrl = exp.config["control"]
    control = bounds.ControlFunction.power(ctrl["theta"], ctrl["r"])
    pts = space.draw_samples(exp.space, exp.plan, arity=1)
    return bounds.audit(exp.f, exp.params, exp.scheme, control, pts,
                        tol=exp.tol, trunc_terms=int(exp.config["trunc_terms"]))


@dataclass(frozen=True)
class Workload:
    """One sample config run as a closed loop from a single caller.

    ``run`` is the timed call; it looks the program's functions up when
    called, so that a traced run reaches the span wrappers. ``render`` gives
    the report text the CLI subcommand would write (its default format),
    ``to_data`` the structure the oracle checks, and ``items`` the work count
    of one run. ``plan_count`` overrides the sample config's point count.
    """

    name: str
    subcommand: str
    base: dict
    run: Callable
    render: Callable
    to_data: Callable
    items: Callable
    plan_count: int | None = None

    def config(self, seed: int = DEFAULT_SEED) -> dict:
        doc = _reseed(self.base, self.name, seed)
        if self.plan_count is not None:
            doc["plan"]["count"] = self.plan_count
        return doc

    def limit_err_over_tol(self, doc: dict) -> float:
        """max over the workload's points of ||A(x) - core(x)|| / tol.

        For every sample config the exact limit of the orbit is the additive
        core. The points, function and scheme are those of the config (a
        sweep's grid varies neither).
        """
        exp = harness.build_experiment({k: v for k, v in doc.items() if k != "grid"})
        worst = 0.0
        for x in space.draw_samples(exp.space, exp.plan, arity=1):
            rep = direct_method.approximate(exp.f, x, exp.scheme, exp.tol,
                                            max_n=int(exp.config["max_n"]))
            worst = max(worst, exp.space.norm(rep.value - exp.f.core.apply(rep.point)))
        return worst / exp.tol


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="verify_power_measured",
            subcommand="verify",
            base=VERIFY_POWER_MEASURED,
            run=lambda doc: harness.run_verify(doc),
            render=lambda rep: harness.render_report(rep, "json"),
            to_data=lambda rep: rep.to_json_dict(),
            items=lambda rep: len(rep.points),
        ),
        Workload(
            name="sweep_family_a",
            subcommand="sweep",
            base=SWEEP_FAMILY_A,
            run=lambda doc: harness.run_sweep(doc),
            render=lambda rows: harness.render_sweep(rows, "csv"),
            to_data=lambda rows: rows,
            items=lambda rows: len(rows),
        ),
        Workload(
            name="audit_backward_dyadic",
            subcommand="audit",
            base=AUDIT_BACKWARD_DYADIC,
            run=run_audit,
            render=lambda aud: harness.stable_json(aud.to_json_dict()),
            to_data=lambda aud: aud.to_json_dict(),
            items=lambda aud: aud.points,
            plan_count=AUDIT_POINTS,
        ),
    )
}
