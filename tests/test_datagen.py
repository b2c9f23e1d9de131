import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dantzig_adm import core
from dantzig_adm.core import Instance
from dantzig_adm.datagen import (
    GenSpec,
    default_delta,
    gen_design,
    gen_signal,
    make_instance,
    mu_rule,
    tol_rule,
)

from oracles import instance_one_draw


def _spec(**overrides):
    base = dict(n=40, p=120, s=6, sigma_noise=0.05, design_kind="unit_columns", seed=7)
    base.update(overrides)
    return GenSpec(**base)


class TestGenSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"p": 0},
            {"s": -1},
            {"s": 121},
            {"sigma_noise": -0.1},
            {"sigma_noise": float("nan")},
            {"sigma_noise": float("inf")},
            {"design_kind": "fourier"},
            {"design_kind": "orthogonal_rows", "n": 121, "p": 120, "s": 6},
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            _spec(**overrides)


class TestOrthogonalRowsThreads:
    """The orthogonal design's QR runs on one BLAS thread, whatever the process runs."""

    def test_same_bytes_under_one_and_two_blas_threads(self):
        # the QR's blocking follows the thread count; at this size and these
        # seeds two threads gave other bytes than one before it was pinned
        script = (
            "import hashlib\n"
            "from dantzig_adm.datagen import GenSpec, make_instance\n"
            "for seed in (0, 3):\n"
            "    spec = GenSpec(n=200, p=1000, s=20, sigma_noise=0.05,\n"
            "                   design_kind='orthogonal_rows', seed=seed)\n"
            "    inst, _ = make_instance(spec)\n"
            "    for a in (inst.X, inst.y, inst.d):\n"
            "        print(hashlib.sha256(a.tobytes()).hexdigest())\n"
        )
        src = Path(core.__file__).resolve().parent.parent
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        hashes = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
            )
            assert run.returncode == 0, run.stderr
            hashes.append(run.stdout.split())
        assert len(hashes[0]) == 6 and hashes[0] == hashes[1]

    def test_thread_count_is_restored(self):
        previous = core.set_blas_threads(2)
        if previous is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count setter here")
        try:
            seen = []
            original = np.linalg.qr

            def recording(a):
                seen.append(core.set_blas_threads(1))  # the count the QR ran on
                return original(a)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np.linalg, "qr", recording)
                gen_design(_spec(design_kind="orthogonal_rows"))
            assert seen == [1]
            assert core.set_blas_threads(2) == 2
        finally:
            core.set_blas_threads(previous)


class TestGenDesign:
    def test_unit_columns_have_unit_norm(self):
        X = gen_design(_spec())
        norms = np.linalg.norm(X, axis=0)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_orthogonal_rows_satisfy_row_identity(self):
        X = gen_design(_spec(design_kind="orthogonal_rows"))
        gram = X @ X.T
        assert np.abs(gram - np.eye(X.shape[0])).max() <= 1e-10

    def test_orthogonal_rows_column_norm_trace_identity(self):
        spec = _spec(design_kind="orthogonal_rows")
        X = gen_design(spec)
        d = np.linalg.norm(X, axis=0)
        assert float((d**2).sum()) == pytest.approx(spec.n, rel=1e-10)

    @pytest.mark.parametrize("design", ["unit_columns", "orthogonal_rows"])
    def test_fixed_seed_is_bitwise_reproducible(self, design):
        spec = _spec(design_kind=design)
        assert np.array_equal(gen_design(spec), gen_design(spec))

    def test_different_seeds_differ(self):
        assert not np.array_equal(gen_design(_spec(seed=1)), gen_design(_spec(seed=2)))

    @pytest.mark.parametrize("design", ["unit_columns", "orthogonal_rows"])
    def test_column_major(self, design):
        X = gen_design(_spec(design_kind=design))
        assert X.flags.f_contiguous and X.shape == (40, 120)
        # so Instance keeps it as it is
        assert Instance(X=X, y=np.zeros(40), delta=1.0).X is X


class TestGenSignal:
    def test_support_size_and_placement(self):
        spec = _spec()
        truth = gen_signal(spec)
        assert truth.support.shape == (spec.s,)
        assert np.array_equal(np.flatnonzero(truth.beta_true), truth.support)
        off = np.setdiff1d(np.arange(spec.p), truth.support)
        assert np.all(truth.beta_true[off] == 0.0)

    def test_zero_sparsity_gives_zero_signal(self):
        truth = gen_signal(_spec(s=0))
        assert np.array_equal(truth.beta_true, np.zeros(120))
        assert truth.support.size == 0

    def test_nonzero_magnitudes_at_least_one(self):
        truth = gen_signal(_spec(s=50))
        assert np.all(np.abs(truth.beta_true[truth.support]) >= 1.0)

    def test_mean_magnitude_matches_half_normal_moment(self):
        # E |beta_j| over the support is 1 + E|N(0,1)| = 1 + sqrt(2/pi)
        spec = GenSpec(n=1, p=100_000, s=100_000, sigma_noise=0.0, seed=123)
        truth = gen_signal(spec)
        mean_mag = np.abs(truth.beta_true).mean()
        assert mean_mag == pytest.approx(1.0 + math.sqrt(2.0 / math.pi), abs=0.01)

    def test_noise_scales_with_sigma_for_fixed_seed(self):
        low = gen_signal(_spec(sigma_noise=0.1))
        high = gen_signal(_spec(sigma_noise=0.2))
        assert np.allclose(2.0 * low.noise, high.noise, rtol=1e-12)
        # the signal sub-streams are untouched by the noise level
        assert np.array_equal(low.beta_true, high.beta_true)


class TestGenResponse:
    """The response y = X beta + eps that make_instance builds."""

    def test_noiseless_response_is_exact(self):
        spec = _spec(sigma_noise=0.0)
        inst, truth = make_instance(spec, delta=0.5)
        # the row-major product: on a column-major X, @ takes another BLAS path
        assert np.array_equal(inst.y, np.ascontiguousarray(gen_design(spec)) @ truth.beta_true)

    def test_pure_noise_variance(self):
        spec = GenSpec(n=720, p=730, s=0, sigma_noise=0.3, seed=11)
        inst, _ = make_instance(spec)
        assert inst.y.var() == pytest.approx(spec.sigma_noise**2, rel=0.2)

    def test_consistent_with_make_instance(self):
        spec = _spec()
        inst, truth = make_instance(spec)
        y = gen_design(spec) @ truth.beta_true + gen_signal(spec).noise
        assert np.allclose(inst.y, y, atol=1e-15)


class TestDefaultRules:
    def test_delta_at_log_anchor(self):
        # p = e^2 forces sqrt(2 ln p) = 2 regardless of the log base confusion
        assert default_delta(math.e**2, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_delta_at_benchmark_size(self):
        assert default_delta(2560, 0.01) == pytest.approx(0.039617578263880814, rel=1e-12)

    def test_delta_homogeneous_in_sigma(self):
        assert default_delta(500, 0.2) == pytest.approx(2 * default_delta(500, 0.1), rel=1e-12)

    def test_delta_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            default_delta(100, 0.0)

    def test_mu_rule_unit_columns(self):
        delta = default_delta(2560, 0.01)
        assert mu_rule("unit_columns", 2560, delta) == pytest.approx(19.95501617429387, rel=1e-12)

    def test_mu_rule_orthogonal_rows(self):
        assert mu_rule("orthogonal_rows", 2560, 0.1) == pytest.approx(40.0, rel=1e-12)

    @pytest.mark.parametrize("design", ["unit_columns", "orthogonal_rows"])
    def test_mu_scales_inversely_with_delta(self, design):
        assert mu_rule(design, 640, 0.05) == pytest.approx(
            2 * mu_rule(design, 640, 0.1), rel=1e-12
        )

    def test_tol_rule_per_design(self):
        assert tol_rule("orthogonal_rows") == 2e-4
        assert tol_rule("unit_columns") == 1e-3


class TestMakeInstance:
    def test_unit_design_yields_identity_scaling(self):
        inst, _ = make_instance(_spec())
        assert np.all(np.abs(inst.d - 1.0) <= 1e-12)

    def test_bitwise_determinism(self):
        a, ta = make_instance(_spec())
        b, tb = make_instance(_spec())
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(ta.beta_true, tb.beta_true)

    def test_noiseless_requires_explicit_delta(self):
        with pytest.raises(ValueError):
            make_instance(_spec(sigma_noise=0.0))
        inst, _ = make_instance(_spec(sigma_noise=0.0), delta=0.5)
        assert inst.delta == 0.5

    def test_ground_truth_near_feasibility_rate(self):
        # With delta = sqrt(2 ln p) sigma the per-coordinate exceedance
        # probability is about 1/sqrt(pi ln p) (~0.20 at p = 2560), so the
        # truth should satisfy the correlation constraint roughly 80% of the
        # time.  Use a reduced-width design (same p, fewer rows) to keep the
        # check fast; the statistic only depends on X^T eps / d ~ N(0, sigma^2).
        feasible = 0
        trials = 100
        for seed in range(trials):
            spec = GenSpec(n=180, p=2560, s=20, sigma_noise=0.05, seed=seed)
            inst, truth = make_instance(spec)
            corr = inst.X.T @ (inst.X @ truth.beta_true - inst.y)
            feasible += np.abs(corr / inst.d).max() <= inst.delta
        assert feasible / trials >= 0.75


class TestInstanceBytes:
    """make_instance gives the bytes of the one-draw construction of tests/oracles.py."""

    @pytest.mark.parametrize(
        "design, n, p, s",
        [
            ("unit_columns", 720, 2560, 80),
            ("unit_columns", 101, 333, 7),  # n and p not multiples of a tile or a SIMD width
            ("unit_columns", 64, 700, 5),  # one whole tile
            ("unit_columns", 65, 700, 5),  # a last tile of one row
            ("unit_columns", 15, 200, 3),  # fewer rows than a tile
            ("unit_columns", 16, 200, 3),  # one whole 16-row tile
            ("unit_columns", 17, 200, 3),  # a last tile of one row
            ("unit_columns", 33, 200, 3),  # two whole tiles and one row
            ("unit_columns", 300, 100, 5),  # n > p
            ("orthogonal_rows", 200, 1000, 20),
        ],
    )
    def test_equal_to_one_draw(self, design, n, p, s):
        spec = GenSpec(n=n, p=p, s=s, sigma_noise=0.05, design_kind=design, seed=3)
        inst, _ = make_instance(spec)
        for got, expected in zip((inst.X, inst.y, inst.d), instance_one_draw(spec)):
            assert got.tobytes() == expected.tobytes()  # bit for bit, signs of zeros too

    def test_no_signal_and_no_noise(self):
        # y is a product with zeros only: no tile column is copied
        spec = GenSpec(n=70, p=90, s=0, sigma_noise=0.0, seed=4)
        inst, _ = make_instance(spec, delta=0.5)
        _, y, _ = instance_one_draw(spec)
        assert inst.y.tobytes() == y.tobytes()


class TestBuildMemory:
    """X is the only full-size array of a build (tracemalloc sees numpy's buffers)."""

    SPEC = GenSpec(n=720, p=2560, s=80, sigma_noise=0.05, seed=5)

    def test_make_instance_holds_one_copy_of_x(self, traced_peak):
        # X, and 16-row tiles: 0.31 MiB of scratch at p = 2560
        (inst, _), peak = traced_peak(make_instance, self.SPEC)
        assert peak <= 1.08 * inst.X.nbytes

    def test_instance_of_column_major_x_makes_no_copy(self, traced_peak):
        inst, _ = make_instance(self.SPEC)
        built, peak = traced_peak(Instance, X=inst.X, y=inst.y, delta=inst.delta)
        assert built.X is inst.X
        assert peak <= 0.08 * inst.X.nbytes
