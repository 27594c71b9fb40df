"""Regression snapshot: pin headline metrics against drift.

These values were recorded from a verified run of the full pipeline
(see EXPERIMENTS.md).  Tolerances are loose enough to survive harmless
numeric churn but tight enough to catch modeling or solver regressions.
If an intentional model change shifts them, update the expectations and
EXPERIMENTS.md together.
"""

import pytest

from repro.core import DesignContext, optimize_dose_map
from repro.netlist import make_design


@pytest.fixture(scope="module")
def ctx():
    return DesignContext(make_design("AES-65"))


class TestBaselines:
    def test_aes65_size(self, ctx):
        assert ctx.netlist.n_gates == 2688

    def test_aes65_baseline_mct(self, ctx):
        assert ctx.baseline.mct == pytest.approx(4.054, abs=0.15)

    def test_aes65_baseline_leakage(self, ctx):
        assert ctx.baseline_leakage == pytest.approx(196.3, rel=0.05)


class TestHeadlineResults:
    def test_qcp_5um(self, ctx):
        """Paper-shape anchor: QCP at 5 um gains several percent MCT at
        near-zero leakage change."""
        res = optimize_dose_map(ctx, 5.0, mode="qcp")
        assert res.mct_improvement_pct == pytest.approx(7.8, abs=1.5)
        assert abs(res.leakage_improvement_pct) < 2.5

    def test_qp_5um(self, ctx):
        res = optimize_dose_map(ctx, 5.0, mode="qp")
        assert res.leakage_improvement_pct == pytest.approx(26.4, abs=4.0)
        assert res.mct_improvement_pct > -0.3

    def test_uniform_dose_endpoints(self, ctx):
        """Table II anchors at +/-5 % dose."""
        from repro.core import uniform_dose_sweep

        lo, hi = uniform_dose_sweep(ctx, doses=[-5.0, 5.0])
        assert lo.leakage_improvement_pct == pytest.approx(38.3, abs=3.0)
        assert hi.mct_improvement_pct == pytest.approx(11.4, abs=2.0)
        assert hi.leakage_improvement_pct == pytest.approx(-156.3, abs=15.0)


# ----------------------------------------------------------------------
# Variation goldens: Monte Carlo and SSTA on the timing graph.  Recorded
# from the per-gate implementations before both moved onto
# CompiledTimingGraph; the MC samples must stay bit-identical and SSTA
# within 1e-12.  The dose maps are the QCP maps (G=10 um) those runs
# produced, stored here so the goldens do not depend on the solver.
# The MC digest is exact: a numpy/LAPACK build whose least-squares delay
# fits differ in the last bit fails it.
# ----------------------------------------------------------------------
_VARIATION_SCALE = 0.25
_VARIATION_GRID = 10.0
_VARIATION_SAMPLES = 200
_VARIATION_SEED = 11

_VARIATION_GOLDENS = {
    "AES-65": {
        "dose_map": [
            [1.5, -0.5, -0.5, 0.0, 2.0],
            [-0.5, -0.5, -2.5, -2.0, 0.0],
            [-1.0, -2.5, -2.5, -3.5, -2.0],
            [-1.0, -1.5, -2.0, -2.5, -2.5],
            [-1.0, -1.0, -1.5, -1.5, -2.0],
        ],
        "mc": {
            "nominal": "91ef043bc533487c2d01ea0c3817ea238e24c847480ed843afc0660564208ecd",
            "qcp": "ee08bc4f269b5a1d328eaa5a1c753b96d1fb8b1128160b6e437ad76e1b062266",
        },
        "ssta": {
            "nominal": (
                2.4413939359162242, 0.01831241528672219, 0.007972988493580265,
                [0.011863481943978425, 0.006725509877973937,
                 0.009262900256441617] + [0.0] * 6,
            ),
            "qcp": (
                2.37481247031933, 0.017967306197489815, 0.0073108880074982344,
                [0.011761982555020527, 0.0067253084706343745,
                 0.009262882968405719] + [0.0] * 6,
            ),
        },
    },
    "JPEG-65": {
        "dose_map": [
            [2.5, 2.5, 2.5, 2.5, 0.5, 1.0, -1.0, 1.0],
            [0.5, 0.5, 0.5, 0.5, 0.5, -1.0, -1.0, -1.0],
            [-1.5, -1.5, -1.5, -1.5, -1.5, -1.5, -3.0, -3.0],
            [-3.5, -3.5, -3.5, -3.5, -3.5, -3.5, -3.5, -3.5],
            [-2.5, -2.5, -2.5, -2.5, -2.5, -2.5, -2.5, -3.0],
            [-1.5, -1.5, -2.0, -2.0, -2.0, -2.0, -2.0, -2.0],
            [-1.0, -1.0, -1.5, -1.5, -1.5, -1.5, -1.5, -1.5],
            [-1.0, -1.0, -1.0, -1.0, -1.5, -1.5, -1.5, -1.5],
        ],
        "mc": {
            "nominal": "331fa883f53b168d1658da84db533f0654b6e18398173a1147852ff035c57167",
            "qcp": "4854e608d91c2b6d071340bed482ca0553074ee556af2174fb06a58e30df37d4",
        },
        "ssta": {
            "nominal": (
                3.8596994367493487, 0.024207848330790066, 0.010442568801849106,
                [0.014382201007185224, 0.014476567266836023,
                 0.0067362453609886245, 0.003895763136977715] + [0.0] * 12,
            ),
            "qcp": (
                3.6969090453156364, 0.02408906520393734, 0.010587240121025528,
                [0.014397525727921382, 0.013852097665626723,
                 0.007335100294089861, 0.0039013274498195553] + [0.0] * 12,
            ),
        },
    },
}


@pytest.fixture(scope="module", params=sorted(_VARIATION_GOLDENS))
def variation_case(request):
    from repro.dosemap import DoseMap, GridPartition

    ctx = DesignContext(make_design(request.param, scale=_VARIATION_SCALE))
    die = ctx.placement.die
    part = GridPartition(die.width, die.height, _VARIATION_GRID)
    golden = _VARIATION_GOLDENS[request.param]
    dose_maps = {
        "nominal": None,
        "qcp": DoseMap(part, "poly", golden["dose_map"]),
    }
    return ctx, dose_maps, golden


class TestVariationGoldens:
    def test_aes_has_pi_pins_after_the_first(self):
        """The AES golden exercises gates whose PI pin is not pin 0."""
        ctx = DesignContext(make_design("AES-65", scale=_VARIATION_SCALE))
        nl, lib = ctx.netlist, ctx.library
        late = 0
        for gate in nl.gates.values():
            if lib.cell(gate.master).is_sequential:
                continue
            pi = [k for k, net in enumerate(gate.inputs)
                  if nl.nets[net].driver is None]
            late += bool(pi) and pi[0] > 0
        assert late > 0

    @pytest.mark.parametrize("dose", ["nominal", "qcp"])
    def test_monte_carlo_samples_bit_identical(self, variation_case, dose):
        import hashlib

        from repro.variation import TimingMonteCarlo, VariationModel

        ctx, dose_maps, golden = variation_case
        mc = TimingMonteCarlo(ctx)
        dl = mc.sample_dl(
            VariationModel(seed=_VARIATION_SEED), _VARIATION_SAMPLES
        )
        samples = mc.mct_samples(dl, dose_map=dose_maps[dose])
        digest = hashlib.sha256(samples.tobytes()).hexdigest()
        assert digest == golden["mc"][dose]

    @pytest.mark.parametrize("dose", ["nominal", "qcp"])
    def test_ssta_within_1e12(self, variation_case, dose):
        from repro.variation import SSTA, VariationModel

        ctx, dose_maps, golden = variation_case
        mct = SSTA(ctx, VariationModel(seed=_VARIATION_SEED)).analyze(
            dose_map=dose_maps[dose]
        )
        mean, sigma, rand, sens = golden["ssta"][dose]
        assert mct.mean == pytest.approx(mean, abs=1e-12, rel=0)
        assert mct.sigma == pytest.approx(sigma, abs=1e-12, rel=0)
        assert mct.rand == pytest.approx(rand, abs=1e-12, rel=0)
        assert len(mct.sens) == len(sens)
        for got, want in zip(mct.sens, sens):
            assert got == pytest.approx(want, abs=1e-12, rel=0)


# ----------------------------------------------------------------------
# dosePl goldens: the full pass on full-scale AES-65, pinned exactly.
# Recorded from the one-by-one candidate walk that preceded the position
# index and the fixed-point replay; both must reproduce every swap, so
# the counts, MCT, leakage, history and placement are exact.  The dose
# maps are the QCP maps of those runs, stored so the goldens do not
# depend on the solver.  G=10 accepts two rounds (the accept + resync
# path); G=30 aggressive accepts none and settles into a fixed point
# after its first rounds (the replay path).
# ----------------------------------------------------------------------
_H10 = [3.8765338497288195, 3.8637708521924816] + [3.8547236463371335] * 9
_L10 = [193.29493818583632, 193.29441442652444] + [193.30925072356627] * 9

_DOSEPL_GOLDENS = {
    "G10-default": {
        "grid": 10.0,
        "aggressive": False,
        "dose_map": [
            [1.0, 1.0, 1.0, -1.0, -3.0, -2.0, 0.0, 2.0, 0.0, 1.0, 1.0],
            [3.0, 3.0, 3.0, 1.0, -1.0, -3.0, -2.0, 0.0, 0.0, 2.0, 3.0],
            [1.5, 1.0, 1.0, 1.0, -1.0, -2.5, -3.5, -2.0, -2.0, 0.0, 1.0],
            [-0.5, -0.5, -1.0, -1.0, -1.0, -3.0, -1.5, -1.5, -3.5, -2.0,
             -1.0],
            [-1.0, -2.5, -2.5, -3.0, -3.0, -3.0, -3.5, -3.0, -3.5, -3.0,
             -1.0],
            [-0.5, -1.0, -1.5, -2.0, -2.0, -2.5, -2.5, -2.5, -2.5, -2.5,
             -2.0],
            [-0.5, -0.5, -1.0, -1.5, -1.5, -1.5, -2.0, -2.0, -2.0, -2.0,
             -2.0],
            [-0.5, -0.5, -0.5, -1.0, -1.0, -1.0, -1.5, -1.5, -1.5, -1.5,
             -1.5],
            [-0.5, -0.5, -0.5, -0.5, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0,
             -1.5],
            [-0.5, -0.5, -0.5, -0.5, -0.5, -1.0, -1.0, -1.0, -1.0, -1.0,
             -1.0],
        ],
        "mct": 3.8547236463371335,
        "leakage": 193.30925072356627,
        "baseline_mct": 3.8765338497288195,
        "attempted": 23703,
        "accepted": 2,
        "trial_rejected": 256,
        "history": list(zip(range(11), _H10, _L10)),
        "placement": "50e8d38e3c537280a6f0977fa2c2d66d"
                     "72c2fc0aa250150bdb46e4357f61ad2f",
    },
    "G30-aggressive": {
        "grid": 30.0,
        "aggressive": True,
        "dose_map": [
            [2.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, -2.0],
            [-0.5, -0.5, -1.0, -1.5],
            [-0.5, -0.5, -0.5, -1.0],
        ],
        "mct": 3.9532601020429294,
        "leakage": 195.6538569731757,
        "baseline_mct": 3.9532601020429294,
        "attempted": 1559004,
        "accepted": 0,
        "trial_rejected": 304,
        "history": [
            (r, 3.9532601020429294, 195.6538569731757) for r in range(15)
        ],
        "placement": "b0971c2c63e8a00afd018e00a2e535e1"
                     "b1b759d94426a3e78b370fe00703856d",
    },
}


@pytest.fixture(scope="module", params=sorted(_DOSEPL_GOLDENS))
def dosepl_case(request, ctx):
    from repro.core import DoseplConfig, run_dosepl
    from repro.dosemap import DoseMap, GridPartition

    golden = _DOSEPL_GOLDENS[request.param]
    die = ctx.placement.die
    part = GridPartition(die.width, die.height, golden["grid"])
    cfg = DoseplConfig.aggressive() if golden["aggressive"] else None
    res = run_dosepl(
        ctx, DoseMap(part, "poly", golden["dose_map"]), config=cfg
    )
    return res, golden


class TestDoseplGoldens:
    def test_counts_exact(self, dosepl_case):
        res, golden = dosepl_case
        assert res.swaps_attempted == golden["attempted"]
        assert res.swaps_accepted == golden["accepted"]
        assert res.swaps_trial_rejected == golden["trial_rejected"]

    def test_mct_and_leakage_exact(self, dosepl_case):
        res, golden = dosepl_case
        assert repr(res.mct) == repr(golden["mct"])
        assert repr(res.leakage) == repr(golden["leakage"])
        assert repr(res.baseline_mct) == repr(golden["baseline_mct"])

    def test_history_exact(self, dosepl_case):
        res, golden = dosepl_case
        assert res.history == golden["history"]

    def test_placement_exact(self, dosepl_case):
        import hashlib

        res, golden = dosepl_case
        digest = hashlib.sha256(
            repr(list(res.placement.items())).encode()
        ).hexdigest()
        assert digest == golden["placement"]
