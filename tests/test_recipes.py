"""Every shipped figure recipe runs as written: its axes, paths and reduction
reach the cells.  The cell simulation is stubbed, so no physics runs."""

import configparser
import itertools
from pathlib import Path

import pytest

from cavex import sweeps
from cavex.config import _KEYMAP, load_config, load_sweep

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _has_sweep(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path)
    return parser.has_section("sweep")


RECIPES = [p for p in sorted(CONFIGS.glob("*.ini")) if _has_sweep(p)]


def test_every_figure_has_a_recipe():
    names = {p.stem for p in RECIPES}
    assert names == {
        "fig2c", "fig2d", "fig3a", "fig3b", "fig3c", "fig4", "figS1blue", "figS1red", "figS2",
    }


@pytest.mark.parametrize("path", RECIPES, ids=lambda p: p.stem)
def test_recipe_runs_as_written(path, monkeypatch):
    config, spec = load_config(path), load_sweep(path)
    cells = []

    def record(row, reduce_kind):
        cells.extend((cfg, reduce_kind) for cfg in row)
        return tuple((cfg.amplitude_pi, 0.0) for cfg in row)

    monkeypatch.setattr(sweeps, "_row_values", record)
    result = sweeps.run_sweep(config, spec)

    assert [path for path, _ in result.axes] == [p for p in (spec.axis1_path, spec.axis2_path) if p]
    assert result.values.shape == tuple(len(values) for _, values in spec.axes)
    assert result.metadata["reduce"] == spec.reduce
    # cells arrive in row-major order and carry the recipe's axis values; a
    # MaxOverAmplitude recipe runs its amplitude grid as a last axis of EtaC
    # cells and keeps each entry's maximum
    axes, cell_reduce = result.axes, spec.reduce
    if spec.reduce == "MaxOverAmplitude":
        axes, cell_reduce = axes + (("pulse.amplitude_pi", spec.amplitude_grid),), "EtaC"
        assert (result.values == max(spec.amplitude_grid)).all()
    names = [_KEYMAP[path][0] for path, _ in axes]
    grid = list(itertools.product(*(values for _, values in axes)))
    assert len(cells) == len(grid)
    for (cfg, reduce_kind), point in zip(cells, grid):
        assert tuple(getattr(cfg, name) for name in names) == point
        assert reduce_kind == cell_reduce
    if path.stem.startswith("figS1"):
        # the figure reports eta_c, and both polarization modes shift together
        assert spec.reduce == "EtaC"
        offset = config.delta_omega_e_GHz - config.delta_omega_c_GHz
        for cfg, _ in cells:
            assert cfg.delta_omega_e_GHz - cfg.delta_omega_c_GHz == pytest.approx(offset, abs=1e-12)
