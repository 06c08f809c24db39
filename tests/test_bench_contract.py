"""The benchmark's tracer patches cavex functions by name: each must exist,
and a traced run must read what it measures."""

from pathlib import Path

from cavex import sweeps
from cavex.config import blue_case

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # AttributeError if a name it wraps is gone
        patched = list(tracer.patches)
    finally:
        tracer.uninstall()
    assert patched
    originals = {}
    for owner, name, original in patched:
        originals.setdefault((owner, name), original)  # the first patch saw the original
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, f"{owner.__name__}.{name}"


def test_a_traced_run_reads_states_and_field_calls(monkeypatch):
    # a 2-cell power sweep and one run_cell through the installed tracer:
    # what a traced run reads of cavex (each row's states, the field reads)
    # must still be there, or its metrics read 0
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    cfg = blue_case(phonon_enabled=False, n_field_points=4096, n_traj_points=600)
    tracer = Tracer()
    try:
        tracer.install()
        sweeps.power_sweep(cfg, [1.0, 2.0])
        sweeps.run_cell(cfg)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(3)
    assert metrics["dynamics.states_mb"][0] > 0
    assert metrics["pulses.field_at_calls"][0] > 0
