"""Plane-shim verification: clean models pass, seeded mutations fail.

The exhaustive half of the standard sweep runs here with the *small*
configurations only (the bigger sweep members are exercised nightly by
the CI model-check step); every seeded mutation from every shim's
``MUTATIONS`` dict must be pinpointed with the exact diagnostic codes
the registry promises for it.  The rb, steal and ckpt sweep members all
run here, the larger steal and ckpt models included (about 15 s and
10 s), because their state counts are pinned: those models run the
runtime's own coordinator code, and a bug planted in it must fail its
model.
"""

import dataclasses

import pytest

from repro.analysis.model import check_model, mutation_sweep, standard_sweep
from repro.ckpt.coordinator import CheckpointCoordinator
from repro.ckpt.protocol_model import CkptConfig
from repro.ckpt.protocol_model import build_model as build_ckpt
from repro.faults.protocol_model import FTConfig
from repro.faults.protocol_model import build_model as build_ft
from repro.runtime import partition
from repro.runtime.protocol_model import CentralConfig
from repro.runtime.protocol_model import build_model as build_central
from repro.scale.protocol_model import HierConfig
from repro.scale.protocol_model import build_model as build_hier
from repro.strategies.protocol_model import StealConfig
from repro.strategies.protocol_model import build_model as build_steal
from repro.strategies.rdlb import ChunkQueue
from repro.strategies.rdlb_model import RbConfig
from repro.strategies.rdlb_model import build_model as build_rb
from repro.strategies.stealing import Ledger

_SMALL_CLEAN = [
    build_central(CentralConfig()),
    build_central(CentralConfig(shape="front")),
    build_ft(FTConfig()),
    build_ckpt(CkptConfig()),
    build_hier(HierConfig()),
    build_steal(StealConfig()),
    build_steal(StealConfig(crashable=("w0",))),
    build_steal(StealConfig(crashable=("w1",))),
    build_rb(RbConfig()),
    build_rb(RbConfig(crashable=("w1",))),
]

_CACHE: dict = {}


def _checked(model):
    """Explore once per model per session (exploration is deterministic)."""
    if model.name not in _CACHE:
        _CACHE[model.name] = check_model(
            model, por=True, budget=None, seed=0
        )
    return _CACHE[model.name]


def _codes(result):
    return sorted({d.code for d in result.diagnostics})


@pytest.mark.parametrize(
    "model", _SMALL_CLEAN, ids=lambda m: m.name
)
class TestCleanPlanes:
    def test_exhaustive_and_clean(self, model):
        result, ex = _checked(model)
        assert ex.exhaustive
        assert _codes(result) == [], [
            d.format() for d in result.diagnostics
        ]
        assert ex.terminal_states >= 1


@pytest.mark.parametrize(
    "model", _SMALL_CLEAN, ids=lambda m: m.name
)
class TestReductionParity:
    def test_por_verdict_matches_full_expansion(self, model):
        checked, _ = _checked(model)
        full, _ = check_model(model, por=False, budget=None, seed=0)
        assert _codes(checked) == _codes(full)


@pytest.mark.parametrize(
    "model,expected",
    mutation_sweep(),
    ids=lambda arg: arg.name if hasattr(arg, "name") else "-".join(arg),
)
class TestSeededMutations:
    def test_mutation_is_caught_with_expected_codes(
        self, model, expected
    ):
        result, ex = _checked(model)
        got = set(_codes(result))
        assert set(expected) <= got, (
            f"{model.name}: wanted {sorted(expected)}, got {sorted(got)}"
        )
        # Every reported violation must carry a replayable trace.
        for diag in result.diagnostics:
            assert isinstance(diag.details.get("trace"), list)

    def test_counterexample_traces_name_real_actors(self, model, expected):
        result, _ = _checked(model)
        actor_names = set(model.actor_names())
        for diag in result.diagnostics:
            for line in diag.details["trace"]:
                # Step lines look like "  3. s0   label ..."; sends are
                # indented continuations without a step number.
                parts = line.split()
                if parts and parts[0].rstrip(".").isdigit():
                    assert parts[1] in actor_names, line


class TestSweepRegistry:
    def test_standard_sweep_covers_all_planes(self):
        planes = {m.plane for m in standard_sweep()}
        assert planes == {"centralized", "ft", "ckpt", "hier", "steal", "rb"}

    def test_plane_filter(self):
        models = standard_sweep(("ft",))
        assert models and all(m.plane == "ft" for m in models)
        with pytest.raises(ValueError):
            standard_sweep(("nonsense",))

    def test_mutations_cover_every_shim_mutation(self):
        from repro.ckpt import protocol_model as ckpt
        from repro.faults import protocol_model as ft
        from repro.runtime import protocol_model as central
        from repro.scale import protocol_model as hier
        from repro.strategies import protocol_model as steal
        from repro.strategies import rdlb_model as rb

        mods = (central, ft, ckpt, hier, steal, rb)
        declared = set()
        for mod in mods:
            declared |= {
                f"{mod.__name__}:{name}" for name in mod.MUTATIONS
            }
        swept = set()
        for model, _ in mutation_sweep():
            mutation = model.name.split("!", 1)[1]
            for mod in mods:
                if mutation in mod.MUTATIONS:
                    swept.add(f"{mod.__name__}:{mutation}")
        assert swept == declared


#: Explored states of the clean rb and steal models of the standard
#: sweep.  Both models run the runtime's own ``ChunkQueue`` and
#: ``Ledger``, so an edit to those classes that changes what the checker
#: explores shows up here.
_STRATEGY_STATES = {
    "steal-P2-u3": 10_400,
    "steal-P2-u3-crash[w1]": 15_417,
    "steal-P2-u4-crash[w0]": 55_019,
    "rb-P3-u3-d2": 2_581,
    "rb-P3-u3-d2-crash[w1]": 3_264,
}


@pytest.mark.parametrize(
    "model", standard_sweep(("steal", "rb")), ids=lambda m: m.name
)
def test_strategy_model_state_counts_are_pinned(model):
    _, ex = _checked(model)
    assert ex.exhaustive
    assert ex.states == _STRATEGY_STATES[model.name]


#: Explored (states, transitions) of the clean ckpt models of the
#: standard sweep, whose master runs the runtime's
#: ``CheckpointCoordinator`` and ``reduction_repartition``.
_CKPT_COUNTS = {
    "ckpt-p2-u2-r2-e1-x1": (13_738, 41_315),
    "ckpt-p2-u2-r2-e2-x1": (74_522, 234_248),
}


@pytest.mark.parametrize(
    "model", standard_sweep(("ckpt",)), ids=lambda m: m.name
)
def test_ckpt_model_counts_are_pinned(model):
    _, ex = _checked(model)
    assert ex.exhaustive
    assert (ex.states, ex.transitions) == _CKPT_COUNTS[model.name]


class TestPlantedRuntimeBugs:
    """A bug planted in the runtime's coordinator code is a bug in its
    model: the model runs that code, not a copy of it.  These explore
    uncached, since the planted model keeps the clean model's name."""

    def test_chunk_queue_that_never_reissues(self, monkeypatch):
        monkeypatch.setattr(ChunkQueue, "reissue", lambda self, pid: None)
        model = build_rb(RbConfig(crashable=("w1",)))
        result, ex = check_model(model, por=True, budget=None, seed=0)
        assert {"RA601", "RA602"} <= set(_codes(result))
        assert ex.states == 1_314  # as the seeded no_reissue mutation

    def test_ledger_that_grants_nothing(self, monkeypatch):
        monkeypatch.setattr(Ledger, "grant", lambda self: ())
        model = build_steal(StealConfig(units=4, crashable=("w0",)))
        result, _ = check_model(model, por=True, budget=None, seed=0)
        assert "RA602" in _codes(result)

    def test_deposit_that_skips_the_epoch_check(self, monkeypatch):
        deposit = CheckpointCoordinator.deposit

        def unchecked(self, pid, snapshot, now):
            if self.open is not None:  # any epoch's deposit fits
                snapshot = dataclasses.replace(snapshot, epoch=self.open.epoch)
            return deposit(self, pid, snapshot, now)

        monkeypatch.setattr(CheckpointCoordinator, "deposit", unchecked)
        model = build_ckpt(CkptConfig(epochs=2))
        result, ex = check_model(model, por=True, budget=None, seed=0)
        assert "RA703" in _codes(result)
        assert ex.states == 84_402  # as the seeded commit_stale_deposit

    def test_repartition_that_drops_the_dead_units(self, monkeypatch):
        # reduction_repartition's split hands the dead units to no one.
        monkeypatch.setattr(
            partition, "proportional_counts", lambda n, weights: [0] * len(weights)
        )
        model = build_ckpt(CkptConfig())
        result, _ = check_model(model, por=True, budget=None, seed=0)
        assert "RA701" in _codes(result)
