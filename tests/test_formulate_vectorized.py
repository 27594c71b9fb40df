"""Differential tests: the formulation assembler vs the loop oracle.

:func:`build_formulation` (the block-wise COO assembler) must emit
exactly the matrices the readable per-gate ``add_row`` oracle
(:func:`_assemble_reference`) emits -- same ``A`` entries (compared as
canonically sorted COO triplets), same bounds, same leakage quadratic,
same row bookkeeping -- for any design, layer setting, and seam
setting.  Plus the formulation cache/retarget contract.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DesignContext
from repro.constants import DEFAULT_DOSE_RANGE, DEFAULT_SMOOTHNESS
from repro.core.formulate import _assemble_reference, build_formulation
from repro.dosemap import GridPartition
from repro.library import CellLibrary
from repro.netlist import Netlist
from repro.netlist.designs import DesignBundle, make_design

import random


@pytest.fixture(scope="module")
def lib65():
    return CellLibrary("65nm")


@pytest.fixture(scope="module")
def aes_ctx():
    return DesignContext("AES-65")


@pytest.fixture(scope="module")
def aes_ctx_w():
    return DesignContext("AES-65", fit_width=True)


def canonical_coo(A):
    """(row, col, val) triplets sorted row-major for exact comparison."""
    c = A.tocoo()
    order = np.lexsort((c.col, c.row))
    return c.row[order], c.col[order], c.data[order]


def assert_formulations_identical(ref, vec):
    assert ref.A.shape == vec.A.shape
    r1, c1, d1 = canonical_coo(ref.A)
    r2, c2, d2 = canonical_coo(vec.A)
    assert np.array_equal(r1, r2)
    assert np.array_equal(c1, c2)
    assert np.array_equal(d1, d2), "A values differ"
    assert np.array_equal(ref.l, vec.l)
    assert np.array_equal(ref.u, vec.u)
    assert np.array_equal(ref.P_leak.toarray(), vec.P_leak.toarray())
    assert np.array_equal(ref.q_leak, vec.q_leak)
    assert ref.row_clock == vec.row_clock
    assert ref.idx_T == vec.idx_T
    assert ref.n_gates == vec.n_gates
    assert ref.gate_grid == vec.gate_grid
    assert ref.gate_order == vec.gate_order
    assert ref.n_range_rows == vec.n_range_rows
    assert ref.n_smooth_rows == vec.n_smooth_rows


def reference_formulation(ctx, grid_size, both_layers=False,
                          dose_range=DEFAULT_DOSE_RANGE,
                          smoothness=DEFAULT_SMOOTHNESS,
                          seam_smoothness=False):
    """The loop oracle on the partition ``build_formulation`` uses."""
    die = ctx.placement.die
    return _assemble_reference(
        ctx,
        GridPartition(die.width, die.height, grid_size),
        both_layers=both_layers,
        dose_range=dose_range,
        smoothness=smoothness,
        seam_smoothness=seam_smoothness,
    )


def both_assemblies(ctx, grid_size, **kwargs):
    ref = reference_formulation(ctx, grid_size, **kwargs)
    vec = build_formulation(ctx, grid_size, **kwargs)
    return ref, vec


class TestDifferentialFixedDesign:
    @pytest.mark.parametrize("seam", [False, True])
    @pytest.mark.parametrize("grid", [5.0, 10.0, 30.0])
    def test_poly_only(self, aes_ctx, grid, seam):
        ref, vec = both_assemblies(aes_ctx, grid, seam_smoothness=seam)
        assert_formulations_identical(ref, vec)

    @pytest.mark.parametrize("seam", [False, True])
    @pytest.mark.parametrize("both_layers", [False, True])
    def test_both_layers(self, aes_ctx_w, both_layers, seam):
        ref, vec = both_assemblies(
            aes_ctx_w, 10.0, both_layers=both_layers, seam_smoothness=seam
        )
        assert_formulations_identical(ref, vec)

    def test_nondefault_bounds(self, aes_ctx):
        ref, vec = both_assemblies(
            aes_ctx, 10.0, dose_range=3.5, smoothness=1.25
        )
        assert_formulations_identical(ref, vec)

    def test_small_dense_equality(self, lib65):
        """On a tiny DAG the dense matrices must match element-wise."""
        ctx = _random_dag_context(seed=5, n_gates=25, lib=lib65)
        ref, vec = both_assemblies(ctx, 10.0)
        assert np.array_equal(ref.A.toarray(), vec.A.toarray())


class TestDmoptSettings:
    """Every formulation setting ``tests/test_dmopt.py`` solves, on its
    design (AES-65 at scale 0.25): each grid size, both layer settings,
    the seam setting and the non-default bounds."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return DesignContext(make_design("AES-65", scale=0.25))

    @pytest.fixture(scope="class")
    def ctx_w(self):
        return DesignContext(make_design("AES-65", scale=0.25), fit_width=True)

    @pytest.mark.parametrize(
        "grid, kwargs",
        [
            (5.0, {}),
            (10.0, {}),
            (30.0, {}),
            (10.0, {"seam_smoothness": True}),
            (10.0, {"dose_range": 0.0, "smoothness": 2.0}),
            (10.0, {"smoothness": 0.25}),
        ],
        ids=["G5", "G10", "G30", "seam", "zero-range", "tight-smooth"],
    )
    def test_poly(self, ctx, grid, kwargs):
        assert_formulations_identical(*both_assemblies(ctx, grid, **kwargs))

    @pytest.mark.parametrize("both_layers", [False, True])
    def test_fit_width(self, ctx_w, both_layers):
        ref, vec = both_assemblies(ctx_w, 10.0, both_layers=both_layers)
        assert_formulations_identical(ref, vec)


def _random_dag_context(seed, n_gates, lib):
    """A DesignContext over a random placed DAG (every cell placed)."""
    rng = random.Random(seed)
    comb = ["INVX1", "INVX2", "NAND2X1", "NOR2X1", "BUFX1"]
    comb = [m for m in comb if m in lib.masters]
    seq = lib.sequential_names[:1]
    nl = Netlist(f"rand{seed}")
    nl.add_primary_input("pi0")
    nl.add_primary_input("pi1")
    nets = ["pi0", "pi1"]
    for i in range(n_gates):
        out = f"n{i}"
        if seq and rng.random() < 0.15:
            nl.add_gate(f"g{i}", seq[0], [rng.choice(nets)], out)
        else:
            master = rng.choice(comb)
            n_in = 2 if ("NAND" in master or "NOR" in master) else 1
            ins = [rng.choice(nets) for _ in range(n_in)]
            nl.add_gate(f"g{i}", master, ins, out)
        nets.append(out)
    for name, net in nl.nets.items():
        if not net.sinks and not net.is_primary_input:
            nl.add_primary_output(name)
    bundle = DesignBundle(
        name=f"rand{seed}",
        netlist=nl,
        library=lib,
        die_width=60.0,
        die_height=10.8,
    )
    return DesignContext(bundle)


class TestDifferentialRandomDAGs:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        n_gates=st.integers(10, 120),
        seam=st.booleans(),
    )
    def test_random_dag(self, lib65, seed, n_gates, seam):
        ctx = _random_dag_context(seed, n_gates, lib65)
        ref, vec = both_assemblies(ctx, 5.0, seam_smoothness=seam)
        assert_formulations_identical(ref, vec)


class TestFormulationCacheRetarget:
    def test_cache_hit_shares_matrices(self, aes_ctx):
        f1 = aes_ctx.formulation_for(10.0)
        f2 = aes_ctx.formulation_for(10.0)
        assert f2.A is f1.A
        assert f2.P_leak is f1.P_leak

    def test_retarget_only_changes_bounds(self, aes_ctx):
        f1 = aes_ctx.formulation_for(10.0, dose_range=5.0, smoothness=2.0)
        f2 = aes_ctx.formulation_for(10.0, dose_range=4.0, smoothness=1.0)
        assert f2.A is f1.A  # structure shared, no reassembly
        assert f2.shared is f1.shared  # solver workspaces carry over
        fresh = build_formulation(
            aes_ctx, 10.0, dose_range=4.0, smoothness=1.0
        )
        assert np.array_equal(f2.l, fresh.l)
        assert np.array_equal(f2.u, fresh.u)

    def test_retarget_matches_fresh_build_everywhere(self, aes_ctx):
        f = aes_ctx.formulation_for(30.0, dose_range=2.5, smoothness=0.75)
        fresh = build_formulation(
            aes_ctx, 30.0, dose_range=2.5, smoothness=0.75
        )
        assert_formulations_identical(fresh, f)

    def test_retarget_noop_returns_self(self, aes_ctx):
        f1 = aes_ctx.formulation_for(10.0)
        assert f1.retarget() is f1
        assert f1.retarget(dose_range=f1.dose_range) is f1

    def test_distinct_structures_cached_separately(self, aes_ctx):
        f1 = aes_ctx.formulation_for(10.0)
        f2 = aes_ctx.formulation_for(10.0, seam_smoothness=True)
        assert f1.A.shape[0] < f2.A.shape[0]
        assert aes_ctx.formulation_for(10.0).A is f1.A


def _flop_fanout_context(lib):
    """One driver feeding a PO and five flops (one of them on two pins).

    The flops' endpoint rows share that driver, so their order is the
    order the assemblers enumerate that gate's fanout in.
    """
    nl = Netlist("flopfan")
    for pi in ("a", "b"):
        nl.add_primary_input(pi)
    nl.add_gate("drv", "NAND2X1", ["a", "b"], "d")
    nl.add_primary_output("d")
    for k in range(4):
        nl.add_gate(f"ff{k}", "DFFX1", ["d"], f"q{k}")
    nl.add_gate("ffr", "DFFRX1", ["d", "d"], "qr")  # D and R on one net
    nl.add_gate("late", "NAND2X1", ["q0", "a"], "o0")  # PI on pin 1
    nl.add_gate("dup", "NOR2X1", ["q1", "q1"], "o1")  # one arc, two pins
    for net in ("o0", "o1", "q2", "q3", "qr"):
        nl.add_primary_output(net)
    bundle = DesignBundle(
        name="flopfan", netlist=nl, library=lib,
        die_width=20.0, die_height=5.4,
    )
    return DesignContext(bundle)


_ROW_ORDER_SCRIPT = """
import hashlib
import numpy as np
from repro.library import CellLibrary
from repro.core.formulate import build_formulation
from tests.test_formulate_vectorized import (
    _flop_fanout_context,
    reference_formulation,
)

ctx = _flop_fanout_context(CellLibrary("65nm"))
for name, build in (("reference", reference_formulation),
                    ("vector", build_formulation)):
    f = build(ctx, 10.0)
    h = hashlib.sha256(f.A.toarray().tobytes() + f.u.tobytes())
    print(name, h.hexdigest())
"""


class TestEndpointRowOrder:
    def test_vector_matches_reference_rows(self, lib65):
        ctx = _flop_fanout_context(lib65)
        ref, vec = both_assemblies(ctx, 10.0)
        assert_formulations_identical(ref, vec)
        assert np.array_equal(ref.A.toarray(), vec.A.toarray())
        # PO row + one row per distinct flop the driver feeds
        drv = ref.gate_order.index("drv")
        ep_rows = ref.A[:, ref.idx_T].nonzero()[0]
        ep_rows = ep_rows[ep_rows != ref.row_clock]
        drv_rows = [
            r for r in ep_rows if ref.A[r, ref.idx_T - ref.n_gates + drv]
        ]
        assert len(drv_rows) == 6

    def test_row_order_independent_of_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        outs = []
        for seed in ("1", "2", "3"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            proc = subprocess.run(
                [sys.executable, "-c", _ROW_ORDER_SCRIPT],
                env=env, cwd=root, capture_output=True, text=True,
                check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2]
        ref, vec = outs[0].split()[1::2]
        assert ref == vec
