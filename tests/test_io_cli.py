import json
import os

import numpy as np
import pytest

from pamlab import io as pio
from pamlab.cli import (
    cmd_gen_env,
    cmd_simulate,
    cmd_solve,
    cmd_survey,
    cmd_verify,
    main,
    parse_config_text,
)
from pamlab.environment import build_environment
from pamlab.lattice import Field, LatticeSpec
from pamlab.spectral import forward_transform


def rand_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    return Field(spec, rng.normal(size=spec.shape))


class TestFieldDumps:
    @pytest.mark.parametrize("d", [1, 2])
    def test_text_round_trip_bit_exact(self, tmp_path, d):
        spec = LatticeSpec(n=3, L=2, d=d)
        u = rand_field(spec, 5)
        path = tmp_path / "f.txt"
        pio.write_field_text(u, path, flavor="neumann")
        back, flavor = pio.read_field_text(path)
        assert flavor == "neumann"
        assert back.spec == spec
        assert np.array_equal(back.values, u.values)

    def test_binary_round_trip(self, tmp_path):
        spec = LatticeSpec(n=4, L=2, d=2)
        u = rand_field(spec, 6)
        path = tmp_path / "f.bin"
        pio.write_field_binary(u, path)
        back, _ = pio.read_field_binary(path)
        assert np.array_equal(back.values, u.values)

    def test_binary_magic_check(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a field")
        with pytest.raises(ValueError):
            pio.read_field_binary(path)

    def test_spectrum_dump(self, tmp_path):
        spec = LatticeSpec(n=2, L=2, d=2)
        u = rand_field(spec, 7)
        c = forward_transform(u, "neumann")
        path = tmp_path / "spec.txt"
        pio.write_spectrum_text(c, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2,2,2,neumann"
        assert len(lines) == 1 + c.coeffs.size
        m, v = lines[1].split(",")
        assert m == "0;0"
        assert float(v) == c.coeffs.ravel()[0]


class TestEnvironmentArchive:
    @pytest.mark.parametrize("d", [1, 2])
    def test_round_trip_bit_exact(self, tmp_path, d):
        env = build_environment(4, 2, d, "gaussian", 11)
        path = tmp_path / "env.txt"
        pio.write_environment(env, path)
        back = pio.read_environment(path)
        assert np.array_equal(back.noise.values, env.noise.values)
        assert back.kappa_n == env.kappa_n
        assert back.c_n == env.c_n and back.nu == env.nu
        assert back.noise.seed == env.noise.seed
        if d == 2:
            assert np.array_equal(back.X.values, env.X.values)
            assert np.array_equal(back.resonant_renormalized.values,
                                  env.resonant_renormalized.values)
        else:
            assert back.X is None and back.resonant_renormalized is None


class TestConfigParsing:
    def test_basic_parse_and_defaults(self):
        cfg = parse_config_text("d=2\nn_list=8,16\nseeds=1,2\n")
        assert cfg.n_list == [8, 16]
        assert cfg.alpha == 0.8  # d-dependent default
        assert cfg.L_max == 2
        assert cfg.phi == "gaussian"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_config_text("d=1\nn_list=8\nseeds=1\nbogus=3\n")

    def test_L_exceeding_L_max_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("d=1\nn_list=8\nseeds=1\nL_list=4\nL_max=2\n")

    def test_seeds_required(self):
        with pytest.raises(TypeError):
            parse_config_text("d=1\nn_list=8\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# comment\nd=1\n\nn_list=8 # inline\nseeds=3\n")
        assert cfg.n_list == [8] and cfg.seeds == [3]

    def test_hash_covers_defaults(self):
        a = parse_config_text("d=2\nn_list=8\nseeds=1\n")
        b = parse_config_text("d=2\nn_list=8\nseeds=1\nalpha=0.8\n")
        assert a.config_hash() == b.config_hash()
        c = parse_config_text("d=2\nn_list=8\nseeds=1\nalpha=0.9\n")
        assert a.config_hash() != c.config_hash()


class TestCommands:
    def test_gen_env_writes_archives_and_manifest(self, tmp_path):
        cfg = parse_config_text("d=2\nn_list=4,8\nseeds=1,2\n")
        out = str(tmp_path)
        assert cmd_gen_env(cfg, out) == 0
        files = sorted(os.listdir(out))
        archives = [f for f in files if f.startswith("env_")]
        assert len(archives) == 2 * 2  # |n_list| x |seeds|
        assert "env_n4_seed1.txt" in files and "env_n8_seed2.txt" in files
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "gen-env"
        assert "kappa_n_n8" in manifest["derived"]
        # determinism: regenerate and compare bytes
        blob = (tmp_path / "env_n4_seed1.txt").read_bytes()
        assert cmd_gen_env(cfg, out) == 0
        assert (tmp_path / "env_n4_seed1.txt").read_bytes() == blob

    def test_manifest_kappa_matches_recomputation(self, tmp_path):
        cfg = parse_config_text("d=2\nn_list=8\nseeds=5\n")
        cmd_gen_env(cfg, str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        from pamlab.spectral import renormalization_constant

        spec = LatticeSpec(n=8, L=2, d=2)
        assert float(manifest["derived"]["kappa_n_n8"]) == \
            pytest.approx(renormalization_constant(spec), abs=1e-12)

    def test_solve_emits_trajectory_and_eigen(self, tmp_path):
        cfg = parse_config_text("d=1\nn_list=8\nseeds=1\nT=0.1\ndt=0.001\n")
        out = str(tmp_path)
        assert cmd_solve(cfg, out) == 0
        traj0, flavor = pio.read_field_text(tmp_path / "traj_n8_seed1_0.field")
        assert flavor == "dirichlet"
        assert traj0.is_dirichlet()
        eig = (tmp_path / "eigen_n8_seed1.csv").read_text().splitlines()
        assert eig[0] == "lambda,residual,min_interior_value"
        lam, resid, minv = (float(x) for x in eig[1].split(","))
        assert resid <= 1e-8 * abs(lam) and minv > 0

    def test_solve_zero_potential_heat_flow_closed_form(self, tmp_path):
        # zero_potential flag: the dumped trajectory is the pure heat flow
        cfg = parse_config_text(
            "d=1\nn_list=8\nseeds=1\nT=0.1\ndt=0.001\nzero_potential=1\n")
        assert cmd_solve(cfg, str(tmp_path)) == 0
        final, _ = pio.read_field_text(tmp_path / "traj_n8_seed1_T.field")
        spec = final.spec
        from pamlab.spectral import forward_transform, inverse_transform, \
            frequency_grid, laplacian_symbol
        from pamlab.verify import smooth_bump

        w0 = smooth_bump(spec, cfg.amp)
        c = forward_transform(w0, "dirichlet")
        lam = laplacian_symbol(frequency_grid(spec, "dirichlet"), spec.n)
        c.coeffs = c.coeffs * np.exp(lam * cfg.T)
        closed = inverse_transform(c)
        assert np.abs(final.values - closed.values).max() < 1e-12

    def test_simulate_reuses_archived_kappa(self, tmp_path):
        cfg = parse_config_text(
            "d=2\nn_list=4\nseeds=1\nT=0.05\nreplicas=5\nL_list=2\n")
        out = str(tmp_path)
        cmd_gen_env(cfg, out)
        env_before = pio.read_environment(tmp_path / "env_n4_seed1.txt")
        assert cmd_simulate(cfg, out) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert float(manifest["derived"]["kappa_n_n4_seed1"]) == env_before.c_n
        csv_lines = (tmp_path / "measures_n4_seed1.csv").read_text().splitlines()
        assert csv_lines[0] == "t,L,site,mass"
        assert len(csv_lines) > 1

    def test_verify_small_suite_passes(self, tmp_path):
        cfg = parse_config_text(
            "d=1\nn_list=16\nseeds=101\nT=0.15\nreplicas=300\n"
            "L_list=2\nL_max=4\namp=0.4\n")
        rc = cmd_verify(cfg, str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "reports.jsonl").read_text().splitlines()
        names = {json.loads(l)["name"] for l in lines}
        assert names == {"moment_duality", "martingale_qv", "laplace_functional",
                         "mass_tail", "ordering"}
        assert all(json.loads(l)["passed"] for l in lines)

    def test_survey_csv_format(self, tmp_path):
        cfg = parse_config_text("d=2\nn_list=4\nseeds=1,2\nalpha=0.8\n")
        assert cmd_survey(cfg, str(tmp_path)) == 0
        lines = (tmp_path / "survey.csv").read_text().splitlines()
        assert lines[0] == "quantity,n,L,alpha,p,q,flavor,value,seed"
        assert any(l.startswith("xi_holder,4,2,") for l in lines[1:])
        assert any(l.startswith("kappa_n,4,2,") for l in lines[1:])

    def test_main_cli_flags(self, tmp_path):
        rc = main(["gen-env", "--out", str(tmp_path), "--d", "1",
                   "--n-list", "4", "--seeds", "9"])
        assert rc == 0
        assert (tmp_path / "env_n4_seed9.txt").exists()

    def test_missing_archive_error_has_path(self, tmp_path):
        from pamlab.cli import _load_or_build_env

        cfg = parse_config_text("d=1\nn_list=8\nseeds=1\n")
        with pytest.raises(FileNotFoundError, match="env_n8_seed1"):
            _load_or_build_env(cfg, str(tmp_path), 8, 1, require_archive=True)

    def test_mismatched_archive_rejected(self, tmp_path):
        from pamlab.cli import _load_or_build_env

        out = str(tmp_path)
        assert main(["gen-env", "--out", out, "--d", "2", "--phi", "uniform",
                     "--n-list", "4", "--seeds", "1"]) == 0
        with pytest.raises(ValueError, match=r"d=2, phi=uniform.*d=1, phi=gaussian"):
            main(["solve", "--out", out, "--d", "1", "--phi", "gaussian",
                  "--n-list", "4", "--seeds", "1"])
        assert not any(f.startswith("traj_") for f in os.listdir(out))
        cfg = parse_config_text("d=2\nphi=rademacher\nn_list=4\nseeds=1\n")
        with pytest.raises(ValueError, match="phi=rademacher"):
            _load_or_build_env(cfg, out, 4, 1)
        # a different box side alone still rebuilds from the seed
        cfg = parse_config_text("d=2\nphi=uniform\nn_list=4\nseeds=1\nL_list=4\n")
        assert _load_or_build_env(cfg, out, 4, 1).spec.L == 4


class TestManifestLedger:
    def test_pipeline_keeps_every_record(self, tmp_path):
        cfg = parse_config_text(
            "d=1\nn_list=8\nseeds=1\nT=0.05\nreplicas=20\nL_list=2\nL_max=4\n")
        out = str(tmp_path)
        for cmd in (cmd_gen_env, cmd_solve, cmd_verify, cmd_survey):
            cmd(cfg, out)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "survey"
        assert "survey.csv" in manifest["outputs"]
        previous = manifest["previous"]
        assert [r["command"] for r in previous] == ["gen-env", "solve", "verify"]
        assert all("previous" not in r for r in previous)
        failures = sum(not json.loads(l)["passed"]
                       for l in (tmp_path / "reports.jsonl").read_text().splitlines())
        assert previous[2]["derived"]["failures"] == failures

    def test_unreadable_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        cfg = parse_config_text("d=1\nn_list=4\nseeds=1\n")
        with pytest.raises(ValueError, match="manifest.json"):
            cmd_gen_env(cfg, str(tmp_path))
        assert (tmp_path / "manifest.json").read_text() == "{not json"
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="manifest.json"):
            cmd_gen_env(cfg, str(tmp_path))


class TestReproducibility:
    def test_end_to_end_byte_identical(self, tmp_path):
        text = ("d=1\nn_list=16\nseeds=101\nT=0.1\nreplicas=40\n"
                "L_list=2\nL_max=4\nreplicas=40\n")
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            cfg = parse_config_text(text)
            cmd_gen_env(cfg, str(out))
            cfg = parse_config_text(text)
            cmd_simulate(cfg, str(out))
            cfg = parse_config_text(text)
            cmd_survey(cfg, str(out))
            outs.append(out)
        names_a = sorted(os.listdir(outs[0]))
        names_b = sorted(os.listdir(outs[1]))
        assert names_a == names_b
        for name in names_a:
            if name == "manifest.json":
                continue  # timestamps live here by design
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
