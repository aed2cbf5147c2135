import json
import os
import shutil

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
from pamlab.solver import principal_eigenpair


# build_environment(1, 2, 2, "gaussian", 11) as archived by the format's
# first writer, which kept kappa_n and c_n as two stored values
EARLIER_ARCHIVE = """\
pamlab-env-v1
n=1,L=2,d=2,phi=gaussian,seed=11,kappa_n=0.10212161658731667,c_n=0.10212161658731667,nu=0.3989422804014327
[xi]
1,2,2,neumann
0,0.8356679191899973
1,1.1157084137433602
2,0.7243973303412233
3,1.7218679594252733
4,-1.1549921830970904
5,-1.1096528177966252
6,-1.292592777289173
7,-0.706634995005104
8,-1.3677189424769574
[X]
1,2,2,neumann
0,-0.051985498406828645
1,0.035956912516402206
2,0.17466159939731601
3,0.18743993938202747
4,-0.17063813571852254
5,-0.040753593968274146
6,-0.0775190236113366
7,0.059944002174753194
8,0.15222094528512198
[resonant_renormalized]
1,2,2,neumann
0,-0.1455642298690061
1,-0.06200418676053278
2,0.024402779729227303
3,0.220625209351212
4,0.0949640963058373
5,-0.05689927620508173
6,-0.0019210865647941028
7,-0.14448014626465933
8,-0.3103170868955265
"""


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


class TestEnvironmentArchive:
    @pytest.mark.parametrize("d", [1, 2])
    def test_round_trip_bit_exact(self, tmp_path, d):
        env = build_environment(4, 2, d, "gaussian", 11)
        path = tmp_path / "env.txt"
        pio.write_environment(env, path)
        back = pio.read_environment(path)
        assert np.array_equal(back.noise.values, env.noise.values)
        assert back.c_n == env.c_n and back.nu == env.nu
        assert back.noise.seed == env.noise.seed
        if d == 2:
            assert np.array_equal(back.X.values, env.X.values)
            assert np.array_equal(back.resonant_renormalized.values,
                                  env.resonant_renormalized.values)
        else:
            assert back.X is None and back.resonant_renormalized is None

    def test_earlier_archive_reads_back(self, tmp_path):
        path = tmp_path / "env.txt"
        path.write_text(EARLIER_ARCHIVE)
        back = pio.read_environment(path)
        env = build_environment(1, 2, 2, "gaussian", 11)
        assert back.c_n == env.c_n == 0.10212161658731667
        assert back.nu == env.nu
        for name in ("X", "resonant_renormalized"):
            assert np.array_equal(getattr(back, name).values, getattr(env, name).values)
        assert np.array_equal(back.noise.values, env.noise.values)
        pio.write_environment(back, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == EARLIER_ARCHIVE

    def test_disagreeing_constants_rejected(self, tmp_path):
        path = tmp_path / "env.txt"
        path.write_text(EARLIER_ARCHIVE.replace("c_n=0.10212161658731667", "c_n=0.0"))
        with pytest.raises(ValueError, match="env.txt.*must agree"):
            pio.read_environment(path)


class TestMalformedDumps:
    def write_env(self, tmp_path, d=2):
        path = tmp_path / "env.txt"
        pio.write_environment(build_environment(4, 2, d, "gaussian", 11), path)
        return path, path.read_text().splitlines()

    def test_truncated_field_dump(self, tmp_path):
        spec = LatticeSpec(n=4, L=2, d=1)
        path = tmp_path / "f.txt"
        pio.write_field_text(Field(spec, np.arange(1.0, spec.site_count + 1)), path)
        path.write_text("\n".join(path.read_text().splitlines()[:-2]) + "\n")
        with pytest.raises(ValueError, match="f.txt"):
            pio.read_field_text(path)

    def test_duplicate_index_in_field_dump(self, tmp_path):
        path = tmp_path / "f.txt"
        pio.write_field_text(rand_field(LatticeSpec(n=4, L=2, d=2)), path)
        lines = path.read_text().splitlines()
        lines[2] = "0," + lines[2].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="exactly once"):
            pio.read_field_text(path)

    def test_truncated_archive(self, tmp_path):
        path, lines = self.write_env(tmp_path)
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match="env.txt"):
            pio.read_environment(path)

    def test_stray_line_before_first_block(self, tmp_path):
        path, lines = self.write_env(tmp_path)
        path.write_text("\n".join(lines[:2] + ["0,1.0"] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="outside any field block"):
            pio.read_environment(path)

    @pytest.mark.parametrize("d", [1, 2])
    def test_archive_without_xi(self, tmp_path, d):
        path, lines = self.write_env(tmp_path, d)
        rest = [i for i, line in enumerate(lines) if line.startswith("[")][1:]
        end = rest[0] if rest else len(lines)
        path.write_text("\n".join(lines[:2] + lines[end:]) + "\n")
        with pytest.raises(ValueError, match=r"no \[xi\]"):
            pio.read_environment(path)

    def test_block_header_of_another_n(self, tmp_path):
        path, lines = self.write_env(tmp_path)
        at = lines.index("[X]") + 1
        assert lines[at] == "4,2,2,neumann"
        lines[at] = "8,2,2,neumann"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="'8,2,2,neumann'"):
            pio.read_environment(path)

    def test_written_bytes_unchanged(self, tmp_path):
        # the format the readers check: header, then one index,repr row per site
        spec = LatticeSpec(n=1, L=2, d=1)
        path = tmp_path / "f.txt"
        pio.write_field_text(Field(spec, np.array([0.5, -1.0, 3.0])), path, "dirichlet")
        assert path.read_text() == "1,2,1,dirichlet\n0,0.5\n1,-1.0\n2,3.0\n"


class TestConfigParsing:
    def test_basic_parse_and_defaults(self):
        cfg = parse_config_text("d=2\nn_list=8,16\nseeds=1,2\n")
        assert cfg.n_list == [8, 16]
        assert cfg.alpha == 0.8  # d-dependent default
        assert cfg.L_max == 2
        assert cfg.phi == "gaussian"
        assert (cfg.T, cfg.dt) == (0.25, 0.001)  # the README and benchmark time grid

    def test_unknown_key_rejected(self):
        # the survey's norm exponents p, q are fixed per quantity: no key
        for line in ("bogus=3", "p=2", "q=inf"):
            with pytest.raises(ValueError, match="unknown config keys"):
                parse_config_text(f"d=1\nn_list=8\nseeds=1\n{line}\n")

    def test_L_exceeding_L_max_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("d=1\nn_list=8\nseeds=1\nL_list=4\nL_max=2\n")

    def test_seeds_required(self):
        with pytest.raises(TypeError):
            parse_config_text("d=1\nn_list=8\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# comment\nd=1\n\nn_list=8 # inline\nseeds=3\n")
        assert cfg.n_list == [8] and cfg.seeds == [3]

    def test_flags_mirror_config_keys(self, tmp_path, monkeypatch):
        import dataclasses

        from pamlab import cli

        seen = []
        monkeypatch.setitem(cli.COMMANDS, "solve", lambda cfg, out: seen.append(cfg) or 0)
        text = ("d=2\nn_list=4,8\nseeds=3\nphi=uniform\nL_list=2,4\nL_max=6\n"
                "alpha=0.7\neps=0.2\nT=0.1\ndt=0.002\nreplicas=9\n"
                "cap=50\namp=0.3\nseed_base=5\n")
        argv = ["solve", "--out", str(tmp_path)]
        for line in text.splitlines():
            key, val = line.split("=")
            argv += ["--" + key.replace("_", "-"), val]
        assert {f.name for f in dataclasses.fields(cli.RunConfig)} == {
            line.split("=")[0] for line in text.splitlines()}
        assert main(argv) == 0
        assert seen == [parse_config_text(text)]

    def test_every_config_key_is_read(self):
        # a key no command reads would be accepted and then ignored
        import dataclasses
        import inspect
        import re

        from pamlab import cli

        commands = inspect.getsource(cli)
        post_init = inspect.getsource(cli.RunConfig.__post_init__)
        unread = [f.name for f in dataclasses.fields(cli.RunConfig)
                  if not re.search(rf"\bcfg\.{f.name}\b", commands)
                  and not re.search(rf"\bself\.{f.name}\b", post_init)]
        assert unread == []

    def test_malformed_flag_fails_before_work(self, tmp_path):
        out = tmp_path / "out"
        for bad in (["--d", "two"], ["--T", "soon"], ["--n-list", "4,x"],
                    ["--phi", "cauchy"], ["--T", "nan"], ["--T", "inf"], ["--T", "-0.1"],
                    ["--dt", "inf"], ["--dt", "0"], ["--amp", "nan"], ["--alpha", "nan"],
                    ["--eps", "inf"], ["--eps=-inf"]):
            with pytest.raises(ValueError):
                main(["gen-env", "--out", str(out), "--d", "1", "--n-list", "4",
                      "--seeds", "1", *bad])
            assert not out.exists()

    @pytest.mark.parametrize("keys, match", [
        ({"n_list": "4,-2"}, "n_list"),
        ({"n_list": "0"}, "n_list"),
        ({"n_list": "4", "L_list": ""}, "L_list"),
        ({"n_list": "4", "L_list": "", "L_max": "4"}, "L_list"),
        ({"n_list": "4", "T": "0.25", "dt": "0.1"}, "not an integer multiple of dt"),
    ], ids=["negative-n", "zero-n", "empty-L_list", "empty-L_list-with-L_max",
            "T-off-dt-grid"])
    def test_inconsistent_config_fails_before_work(self, tmp_path, keys, match):
        with pytest.raises(ValueError, match=match):
            parse_config_text("d=1\nseeds=1\n" + "".join(f"{k}={v}\n" for k, v in keys.items()))
        out = tmp_path / "out"
        argv = ["solve", "--out", str(out), "--d", "1", "--seeds", "1"]
        for k, v in keys.items():
            argv += ["--" + k.replace("_", "-"), v]
        with pytest.raises(ValueError, match=match):
            main(argv)
        assert not out.exists()

    def test_abbreviated_flag_is_an_error(self, tmp_path, capsys):
        # --n and --p prefix only --n-list and --phi: they must not stand for them
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["gen-env", "--n", "4", "--p", "uniform", "--d", "1", "--seeds", "1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 4 --p uniform" in capsys.readouterr().err
        assert not out.exists()

    def test_hash_is_the_report_scheme(self):
        from pamlab import verify

        cfg = parse_config_text("d=2\nn_list=8\nseeds=1\n")
        assert cfg.config_hash() == verify.config_hash(**cfg.resolved())
        assert len(cfg.config_hash()) == 16

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
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        env = build_environment(8, max(cfg.L_list), cfg.d, cfg.phi, 1)
        assert manifest["derived"]["eigen_solves_n8_seed1"] == \
            principal_eigenpair(env, tol=1e-8).iterations

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

    def test_simulate_runs_each_replica_once(self, tmp_path, monkeypatch):
        from pamlab import branching

        calls = []
        engine = branching._advance

        def counting(*args, **kwargs):
            calls.append(kwargs.get("record", args[7] if len(args) > 7 else False))
            return engine(*args, **kwargs)

        monkeypatch.setattr(branching, "_advance", counting)
        cfg = parse_config_text(
            "d=1\nn_list=4,8\nseeds=1,2\nT=0.05\nreplicas=6\nseed_base=3\n"
            "L_list=2\nL_max=4\n")
        assert cmd_simulate(cfg, str(tmp_path)) == 0
        assert calls == [True] * 4
        monkeypatch.setattr(branching, "_advance", engine)
        env = build_environment(8, 2, 1, "gaussian", 2)
        first = branching.simulate(branching.ambient_rates(env, 4), 0.05, seed=3)
        logged = branching.read_event_log(tmp_path / "events_n8_seed2.bin")
        assert logged and logged == first.events

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

    @pytest.mark.parametrize("replicas,batches", [(60, 2), (250, 3)])
    def test_verify_records_its_batches(self, tmp_path, replicas, batches):
        # the ordering test's min(replicas, 200) seeds are a batch of their own
        cfg = parse_config_text(
            f"d=1\nn_list=4,8\nseeds=1\nT=0.05\nreplicas={replicas}\n"
            "L_list=2\nL_max=4\n")
        cmd_verify(cfg, str(tmp_path))
        derived = json.loads((tmp_path / "manifest.json").read_text())["derived"]
        assert derived["verify_batches_n4"] == derived["verify_batches_n8"] == batches

    def test_verify_one_replica_rejected_before_reports(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="replicas >= 2"):
            main(["verify", "--out", str(out), "--d", "1", "--n-list", "16",
                  "--seeds", "101", "--T", "0.05", "--replicas", "1"])
        assert not (out / "reports.jsonl").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_verify_exploded_suite_writes_strict_json(self, tmp_path, capsys):
        # cap 1 under K = 4 initial particles explodes every replica: each
        # test fails, undefined numbers read null in the file and on stdout
        cfg = parse_config_text(
            "d=1\nn_list=16\nseeds=101\nT=0.05\nreplicas=3\ncap=1\nL_max=4\n")
        assert cmd_verify(cfg, str(tmp_path)) == 1

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        lines = (tmp_path / "reports.jsonl").read_text().splitlines()
        reports = [json.loads(l, parse_constant=reject) for l in lines]
        assert len(reports) == 5 and not any(r["passed"] for r in reports)
        assert all(r["exploded"] == 3 and r["replicas"] == 0 for r in reports)
        stdout = capsys.readouterr().out
        assert stdout.count("FAIL ") == 5 and "statistic=null" in stdout
        assert "se=null" in stdout and "nan" not in stdout

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

    def test_archive_of_other_n_or_seed_rejected(self, tmp_path):
        out = str(tmp_path)
        assert main(["gen-env", "--out", out, "--d", "1", "--n-list", "4,8",
                     "--seeds", "1"]) == 0
        shutil.copy(tmp_path / "env_n8_seed1.txt", tmp_path / "env_n4_seed1.txt")
        with pytest.raises(ValueError, match=r"n=8, seed=1.*n=4, seed=1"):
            main(["solve", "--out", out, "--d", "1", "--n-list", "4", "--seeds", "1"])
        shutil.copy(tmp_path / "env_n8_seed1.txt", tmp_path / "env_n8_seed2.txt")
        with pytest.raises(ValueError, match=r"n=8, seed=1.*n=8, seed=2"):
            main(["solve", "--out", out, "--d", "1", "--n-list", "8", "--seeds", "2"])
        assert not any(f.startswith("traj_") for f in os.listdir(out))


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
