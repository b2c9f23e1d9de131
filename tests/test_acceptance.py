"""End-to-end acceptance checks: statistical benchmark rows at the smallest
size, optimality against enumeration oracles, solver invariants, and CLI
reproducibility.  Each test prints one pass/fail line (run with -s to see them
on success)."""

import numpy as np
import pytest

import dantzig_adm.cli as cli
import dantzig_adm.subsolver as subsolver_module
from dantzig_adm.adm import AdmConfig, solve
from dantzig_adm.core import Instance, soft_thresh
from dantzig_adm.datagen import GenSpec, make_instance, mu_rule, tol_rule
from dantzig_adm.evaluation import evaluate_solution
from dantzig_adm.subsolver import ALPHA_LO, SIGMA_LS, SubproblemObjective, WarmStart, solve_subproblem

from oracles import (
    certificate_dense,
    dense_gram,
    ista_reference,
    lp_optimum,
    lp_primal_enumeration,
    penalized_value_dense,
    random_instance_arrays,
    smooth_value_dense,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")


def _benchmark_statistics(design_kind: str, sigma: float, seeds=range(10)):
    iters, rho2, rho2_orig, statuses = [], [], [], []
    for seed in seeds:
        spec = GenSpec(
            n=720, p=2560, s=80, sigma_noise=sigma, design_kind=design_kind, seed=seed
        )
        inst, truth = make_instance(spec)
        config = AdmConfig(
            mu=mu_rule(design_kind, spec.p, inst.delta), tol=tol_rule(design_kind)
        )
        beta, _, run = solve(inst, config)
        statuses.append(run.status)
        if run.status == "converged":
            iters.append(run.outer_iterations)
            result = evaluate_solution(inst, beta, truth.beta_true, sigma)
            rho2.append(result.rho2)
            rho2_orig.append(result.rho2_orig)
    return (
        float(np.mean(iters)),
        float(max(iters)),
        float(np.mean(rho2)),
        float(np.mean(rho2_orig)),
        statuses,
    )


@pytest.mark.slow
class TestStatisticalBenchmarks:
    def test_criterion_1_unit_design_sigma_005(self):
        iter_mean, iter_max, rho2, rho2_orig, statuses = _benchmark_statistics(
            "unit_columns", 0.05
        )
        ok = (
            all(s == "converged" for s in statuses)
            and 1.0 <= rho2 <= 2.5
            and 20.0 <= rho2_orig <= 60.0
            and 20.0 <= iter_mean <= 150.0
        )
        _report(
            "criterion 1 unit design sigma=0.05 (720,2560,80) x10",
            ok,
            f"rho2={rho2:.2f} in [1.0,2.5], rho2_orig={rho2_orig:.1f} in [20,60], "
            f"iter_mean={iter_mean:.1f} in [20,150]",
        )
        assert ok

    def test_criterion_2_unit_design_sigma_001(self):
        iter_mean, iter_max, rho2, rho2_orig, statuses = _benchmark_statistics(
            "unit_columns", 0.01
        )
        ok = (
            all(s == "converged" for s in statuses)
            and 1.2 <= rho2 <= 3.0
            and 25.0 <= rho2_orig <= 80.0
            and iter_mean <= 60.0
        )
        _report(
            "criterion 2 unit design sigma=0.01 (720,2560,80) x10",
            ok,
            f"rho2={rho2:.2f} in [1.2,3.0], rho2_orig={rho2_orig:.1f} in [25,80], "
            f"iter_mean={iter_mean:.1f} <= 60 (max {iter_max:.0f})",
        )
        assert ok

    def test_criterion_3_orthogonal_design_sigma_005(self):
        iter_mean, iter_max, rho2, rho2_orig, statuses = _benchmark_statistics(
            "orthogonal_rows", 0.05
        )
        ok = (
            all(s == "converged" for s in statuses)
            and 3.5 <= rho2 <= 7.0
            and 60.0 <= rho2_orig <= 130.0
        )
        _report(
            "criterion 3 orthogonal design sigma=0.05 (720,2560,80) x10",
            ok,
            f"rho2={rho2:.2f} in [3.5,7.0], rho2_orig={rho2_orig:.1f} in [60,130] "
            f"(iter_mean={iter_mean:.1f})",
        )
        assert ok


class TestOptimalityOracle:
    def test_criterion_4_matches_lp_enumeration_on_tiny_instances(self):
        rng = np.random.default_rng(42)
        tol = 1e-6
        worst_gap, worst_metric = 0.0, 0.0
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(3, 9))
            X, y, delta = random_instance_arrays(rng, n, p, delta_scale=0.4)
            optimum, _ = lp_primal_enumeration(X, y, delta)
            inst = Instance(X=X, y=y, delta=delta)
            config = AdmConfig(
                mu=mu_rule("unit_columns", p, delta), tol=tol, max_outer_iter=50000
            )
            beta, _, run = solve(inst, config)
            worst_gap = max(worst_gap, abs(float(np.abs(beta).sum()) - optimum))
            worst_metric = max(worst_metric, run.stopping_metric_history[-1])
        ok = worst_gap <= 1e-4 and worst_metric <= tol
        _report(
            "criterion 4 LP enumeration oracle, 20 tiny instances",
            ok,
            f"max |objective - LP optimum| = {worst_gap:.2e} <= 1e-4, "
            f"max final metric = {worst_metric:.2e} <= 1e-6",
        )
        assert ok

    @pytest.mark.slow
    def test_highs_optimum_bounds_the_answer_at_200_by_1000(self):
        """ADM against the exact LP optimum V of scipy's HiGHS, 3 seeds of (200, 1000, 20).

        With the stopping test passed at tol, the primal excess is at most
        e = tol * max(||beta||_2, 1), so beta is feasible at delta + e, where
        HiGHS's dual optimum lambda* has the value V - e ||D lambda*||_1: so
        ||beta||_1 >= V - e ||D lambda*||_1.  lambda / s, s = max(1,
        ||X^T X lambda||_inf) <= 1 + tol * L with L = max(||lambda||_2, 1), is
        dual feasible, so d(lambda) / s <= V (weak duality), and with the gap
        ||beta||_1 - d(lambda) <= tol * max(||beta||_1, 1) = tol * B this gives
        ||beta||_1 - V <= tol (||beta||_1 L + B) / (1 + tol L) when
        d(lambda) >= 0.
        """
        tol = tol_rule("unit_columns")
        lp_ratio = 1e-6  # HiGHS's feasibility tolerances are 1e-7
        lines, ok = [], True
        for seed in range(3):
            inst, _ = make_instance(GenSpec(n=200, p=1000, s=20, sigma_noise=0.05, seed=seed))
            X, y, delta = np.asarray(inst.X), inst.y, inst.delta
            optimum, beta_lp, lam_lp = lp_optimum(X, y, delta)
            lp_worst = max(certificate_dense(X, y, delta, beta_lp, lam_lp)[key]
                           for key in ("primal_ratio", "dual_ratio", "gap_ratio"))
            beta, lam, run = solve(inst, AdmConfig(mu=mu_rule("unit_columns", inst.p, delta),
                                                   tol=tol))
            certificate = certificate_dense(X, y, delta, beta, lam)
            adm_worst = max(certificate[key] for key in ("primal_ratio", "dual_ratio", "gap_ratio"))
            d = np.linalg.norm(X, axis=0)
            h = X.T @ y
            dual = -float(h @ lam) - delta * float(d @ np.abs(lam))
            scaled_dual = dual / max(1.0, float(np.abs(dense_gram(X) @ lam).max()))
            l1 = float(np.abs(beta).sum())
            L = max(float(np.linalg.norm(lam)), 1.0)
            above = tol * (l1 * L + max(l1, 1.0)) / (1 + tol * L) / optimum
            below = tol * max(float(np.linalg.norm(beta)), 1.0) * float(d @ np.abs(lam_lp)) / optimum
            relative = (l1 - optimum) / optimum
            ok &= (
                lp_worst <= lp_ratio
                and run.status == "converged"
                and adm_worst <= tol
                and dual >= 0
                and scaled_dual <= optimum * (1 + lp_ratio)
                and -below <= relative <= above
            )
            lines.append(
                f"seed {seed}: LP certificate {lp_worst:.1e} <= {lp_ratio:.0e}, ADM certificate "
                f"{adm_worst:.1e} <= {tol:.0e}, (V - d(lambda)/s)/V = "
                f"{(optimum - scaled_dual) / optimum:.2e} >= -{lp_ratio:.0e}, "
                f"(||beta||_1 - V)/V = {relative:+.2e} in [-{below:.2e}, +{above:.2e}]"
            )
        _report("HiGHS optimum at (200, 1000, 20), sigma 0.05", ok, "; ".join(lines))
        assert ok


@pytest.mark.slow
class TestSubsolverOracle:
    def test_criterion_5_matches_reference_and_closed_form(self, monkeypatch):
        monkeypatch.setattr(subsolver_module, "MAX_INNER_ITER", 200000)  # room for tol_sub 1e-10
        rng = np.random.default_rng(31415)
        worst_rel = 0.0
        for trial in range(20):
            if trial % 2 == 0:
                # tall designs: positive-definite Gram, fast reference
                n = int(rng.integers(30, 51))
                p = int(rng.integers(10, n // 2 + 1))
                mu = float(rng.uniform(0.5, 3.0))
            else:
                # wide designs in a sparse regime the reference can certify
                n = int(rng.integers(15, 31))
                p = int(rng.integers(35, 51))
                mu = float(rng.uniform(0.05, 0.15))
            X = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            z = rng.standard_normal(p)
            lam = rng.standard_normal(p)
            obj = SubproblemObjective(Instance(X=X, y=y, delta=1.0), z, lam, mu)
            result = solve_subproblem(obj, np.zeros(p), 1e-10)
            value = penalized_value_dense(X, y, z, lam, mu, result.u)
            _, reference, converged = ista_reference(X, y, z, lam, mu, np.zeros(p))
            assert converged, "reference solver failed to converge tightly"
            worst_rel = max(worst_rel, abs(value - reference) / max(1.0, abs(reference)))

        rng_id = np.random.default_rng(77)
        worst_identity = 0.0
        for _ in range(5):
            n = 10
            inst = Instance(X=np.eye(n), y=rng_id.standard_normal(n), delta=1.0)
            z = rng_id.standard_normal(n)
            lam = rng_id.standard_normal(n)
            mu = float(rng_id.uniform(1.0, 4.0))
            obj = SubproblemObjective(inst, z, lam, mu)
            result = solve_subproblem(obj, np.zeros(n), 1e-12)
            closed_form = soft_thresh(inst.y + z - lam / mu, 1.0 / mu)
            worst_identity = max(worst_identity, float(np.abs(result.u - closed_form).max()))

        ok = worst_rel <= 1e-6 and worst_identity <= 1e-8
        _report(
            "criterion 5 subsolver vs proximal-gradient reference",
            ok,
            f"max relative objective gap = {worst_rel:.2e} <= 1e-6, "
            f"max identity-design error = {worst_identity:.2e} <= 1e-8",
        )
        assert ok


class TestGradientCheck:
    def test_criterion_6_gradient_matches_central_differences(self):
        rng = np.random.default_rng(271828)
        h = 1e-6
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(4, 10))
            p = int(rng.integers(5, 13))
            X = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            z = rng.standard_normal(p)
            lam = rng.standard_normal(p)
            mu = float(rng.uniform(0.5, 3.0))
            obj = SubproblemObjective(Instance(X=X, y=y, delta=1.0), z, lam, mu)
            u = rng.standard_normal(p)
            # the inner solver's gradient mu X^T (q0 + K E), at E = 0
            g = WarmStart.at(obj, u).gradient(np.zeros(n))
            for _ in range(20):
                v = rng.standard_normal(p)
                v /= np.linalg.norm(v)
                fd = (
                    smooth_value_dense(X, y, z, lam, mu, u + h * v)
                    - smooth_value_dense(X, y, z, lam, mu, u - h * v)
                ) / (2 * h)
                directional = float(g @ v)
                worst = max(worst, abs(fd - directional) / max(1.0, abs(directional)))
        ok = worst <= 1e-5
        _report(
            "criterion 6 gradient vs central differences (10 x 20 directions)",
            ok,
            f"max relative error = {worst:.2e} <= 1e-5",
        )
        assert ok


@pytest.mark.slow
class TestInvariantSuite:
    def test_criterion_7_invariants_over_randomized_trials(self):
        rng = np.random.default_rng(9)
        violations: list[str] = []
        weak_duality_checks = 0

        for trial in range(100):
            n = int(rng.integers(3, 9))
            p = int(rng.integers(4, 13))
            X, y, delta = random_instance_arrays(rng, n, p, delta_scale=float(rng.uniform(0.3, 0.7)))
            inst = Instance(X=X, y=y, delta=delta)
            mu = float(rng.uniform(0.3, 3.0))
            G = dense_gram(X)
            h = X.T @ y

            feasible_l1: list[float] = []
            scaled_duals: list[float] = []

            def outer_check(rec, inst=inst, mu=mu, G=G, h=h,
                            feasible_l1=feasible_l1, scaled_duals=scaled_duals):
                if not np.all(np.abs(rec.z / inst.d) <= inst.delta * (1 + 1e-12)):
                    violations.append(f"trial {trial}: z left the box")
                residual = G @ rec.beta - h - rec.z
                if np.abs(rec.lam - rec.lam_prev - mu * residual).max() > 1e-12 * (
                    1.0 + np.abs(rec.lam_prev).max()
                ):
                    violations.append(f"trial {trial}: multiplier identity broken")
                if np.abs((G @ rec.beta - h) / inst.d).max() <= inst.delta:
                    feasible_l1.append(float(np.abs(rec.beta).sum()))
                scale = max(1.0, float(np.abs(G @ rec.lam).max()))
                lam_scaled = rec.lam / scale
                scaled_duals.append(
                    -float(h @ lam_scaled) - inst.delta * float(inst.d @ np.abs(lam_scaled))
                )

            solve(
                inst,
                AdmConfig(mu=mu, tol=1e-6, max_outer_iter=5000),
                callback=outer_check,
            )
            if feasible_l1 and scaled_duals:
                weak_duality_checks += 1
                if max(scaled_duals) > min(feasible_l1) + 1e-8:
                    violations.append(f"trial {trial}: weak duality violated")

            # inner-loop invariants on one subproblem per trial
            z = rng.standard_normal(p)
            lam0 = rng.standard_normal(p)
            obj = SubproblemObjective(inst, z, lam0, mu)

            def inner_check(rec, obj=obj):
                if rec.delta > 0.0:
                    violations.append(f"trial {trial}: positive Delta")
                if rec.penalized > rec.window_max + SIGMA_LS * rec.alpha * rec.delta:
                    violations.append(f"trial {trial}: Armijo inequality broken")
                dense = penalized_value_dense(
                    obj.inst.X, obj.inst.y, obj.z_fixed, obj.lambda_fixed, obj.mu, rec.u
                )
                if abs(dense - rec.penalized) > 1e-9 * max(1.0, abs(dense)):
                    violations.append(f"trial {trial}: recorded objective wrong")
                if not (ALPHA_LO <= rec.bar_alpha <= 1.0):
                    violations.append(f"trial {trial}: bar_alpha out of range")
                if not (ALPHA_LO <= rec.bar_alpha_next <= 1.0):
                    violations.append(f"trial {trial}: next bar_alpha out of range")

            solve_subproblem(obj, rng.standard_normal(p), 1e-8, callback=inner_check)

        ok = not violations and weak_duality_checks >= 50
        _report(
            "criterion 7 invariant suite over 100 randomized trials",
            ok,
            f"violations={len(violations)}, weak-duality checks with feasible iterates="
            f"{weak_duality_checks}",
        )
        assert ok, violations[:5]


class TestReproducibility:
    def test_criterion_8_bench_csv_is_byte_identical_excluding_timing(self, tmp_path):
        args = [
            "bench",
            "--design", "unit",
            "--sigma", "0.05",
            "--size", "40,128,6",
            "--reps", "2",
            "--seed", "11",
        ]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert cli.main(args + ["--out", str(first)]) == 0
        assert cli.main(args + ["--out", str(second)]) == 0
        cpu_col = cli.BENCH_HEADER.split(",").index("cpu_mean_s")

        def strip_timing(text: str) -> list[list[str]]:
            rows = [line.split(",") for line in text.splitlines()]
            return [row[:cpu_col] + row[cpu_col + 1 :] for row in rows]

        ok = strip_timing(first.read_text()) == strip_timing(second.read_text())
        _report(
            "criterion 8 bench reproducibility (timing column excluded)",
            ok,
            "two fixed-seed runs emit identical CSV rows",
        )
        assert ok


class TestScopeExclusions:
    def test_criterion_9_excluded_rows_documented(self):
        # Hardware-bound CPU-time columns and the i >= 2 grid rows are out of
        # scope by design; the smallest-size rows above stand in for them.
        _report(
            "criterion 9 exclusions",
            True,
            "cpu-time columns and i>=2 grid rows excluded by design; smallest rows covered",
        )
