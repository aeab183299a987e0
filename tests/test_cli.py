import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trefftzdg
from trefftzdg.cli import MAX_DEGREE, MAX_SUBDIVISIONS, ExperimentConfig, main, run_experiment

HEADER = "method,p,h,ndof_full,ndof_trefftz,l2error,dgerror"


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_row_count_contract(tmp_path):
    out = tmp_path / "ar.csv"
    code = main([
        "run", "--case", "AR_EXAMPLE", "--methods", "dg,et",
        "--p", "3", "--n", "4,8", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 1 + 4  # 2 methods x 1 degree x 2 meshes
    row = lines[1].split(",")
    assert row[0] == "dg" and row[1] == "3"
    assert float(row[2]) == pytest.approx(np.sqrt(2.0) / 4)
    assert int(row[3]) == 2 * 16 * 10
    assert row[4] == ""  # no Trefftz dof count for the standard method
    float(row[5]), float(row[6])
    et_rows = [l for l in lines[1:] if l.startswith("et,")]
    assert int(et_rows[0].split(",")[4]) == 2 * 16 * 4


def test_qt_method_requires_diffusion_case(tmp_path, capsys):
    code = main([
        "run", "--case", "AR_EXAMPLE", "--methods", "qt",
        "--p", "3", "--n", "4", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "qt" in capsys.readouterr().err


def test_etbox_requires_diffusion_case(tmp_path):
    code = main([
        "run", "--case", "AR_EXAMPLE", "--methods", "etbox",
        "--p", "3", "--n", "4", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_unknown_case_and_method(tmp_path, capsys):
    assert main(["run", "--case", "BAD", "--methods", "dg", "--p", "3",
                 "--n", "4", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["run", "--case", "AR_EXAMPLE", "--methods", "dg,nope",
                 "--p", "3", "--n", "4", "--out", str(tmp_path / "x.csv")]) == 2


def test_parameter_ranges(tmp_path):
    base = ["run", "--case", "AR_EXAMPLE", "--methods", "dg",
            "--out", str(tmp_path / "x.csv")]
    assert main(base + ["--p", "7", "--n", "4"]) == 2
    assert main(base + ["--p", "3", "--n", "129"]) == 2
    assert main(base + ["--p", "3", "--n", "0"]) == 2


def test_determinism_byte_identical(tmp_path):
    args = ["run", "--case", "BOX_DIFFUSION_2D", "--methods", "dg,et,etbox,qt",
            "--p", "3", "--n", "2,4", "--out"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert read(out1) == read(out2)


def test_eoc_summary_printed(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["run", "--case", "AR_EXAMPLE", "--methods", "dg",
                 "--p", "2", "--n", "2,4,8", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "method=dg" in text and "EOC" in text


def test_diagnose_output(capsys):
    code = main(["diagnose", "--case", "DAR_EXAMPLE", "--p", "3", "--n", "4"])
    assert code == 0
    text = capsys.readouterr().out
    for token in ("rho_max", "sigma_min_rel", "n_T", "block_equivalence_gap"):
        assert token in text


def test_diagnose_sigma_csv(tmp_path):
    out = tmp_path / "sigma.csv"
    assert main(["diagnose", "--case", "QT_DIFFUSION", "--p", "2", "--n", "2",
                 "--kind", "QT_DIFFUSION", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "element_id,sigma_index,sigma_value"
    assert len(lines) == 1 + 8  # one singular value per element at p=2


def test_diagnose_out_builds_the_embedding_once(tmp_path, monkeypatch):
    import trefftzdg.analysis as analysis
    import trefftzdg.cli as cli

    builds = []
    original = analysis.build_embedding

    def counting(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    for module in (analysis, cli):
        monkeypatch.setattr(module, "build_embedding", counting)
    out = tmp_path / "sigma.csv"
    assert main(["diagnose", "--case", "DAR_EXAMPLE", "--p", "3", "--n", "2",
                 "--out", str(out)]) == 0
    assert len(builds) == 1
    assert len(out.read_text().splitlines()) == 1 + 8 * 3  # dim Q = 3 at p=3


def test_run_builds_the_case_once(tmp_path, monkeypatch):
    import trefftzdg.coefficients as coefficients

    builds = []
    original = coefficients.manufactured_case

    def counting(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(coefficients, "manufactured_case", counting)
    assert main(["run", "--case", "DAR_EXAMPLE", "--methods", "dg,et,etbox", "--p", "2",
                 "--n", "1,2", "--out", str(tmp_path / "x.csv")]) == 0
    assert len(builds) == 1
    # the case is derived from its name, never passed
    with pytest.raises(TypeError):
        ExperimentConfig(case="AR_EXAMPLE", methods=("dg",), p_list=(3,), n_list=(4,),
                         out="x.csv", coeffs=None)


def test_default_penalty_is_50_p_squared(tmp_path):
    args = ["run", "--case", "BOX_DIFFUSION_2D", "--methods", "dg,et",
            "--p", "3", "--n", "2", "--out"]
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    assert main(args + [str(default)]) == 0
    assert main(args + [str(explicit), "--sigma", "450"]) == 0
    assert read(default) == read(explicit)


def test_diagnose_box_scale_beyond_the_element_is_clipped(capsys):
    assert main(["diagnose", "--case", "DAR_EXAMPLE", "--kind", "DAR_BOX", "--p", "2",
                 "--n", "1", "--box-scale", "1e300"]) == 0
    captured = capsys.readouterr()
    assert "rho_max" in captured.out and captured.err == ""


def test_python_m_runs_the_cli(tmp_path):
    src = str(Path(trefftzdg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "trefftzdg", "dump-mesh", "--n", "1"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert sum(1 for l in proc.stdout.splitlines() if l.startswith("t ")) == 2


def test_dump_mesh(tmp_path):
    out = tmp_path / "mesh.txt"
    assert main(["dump-mesh", "--n", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 9
    assert sum(1 for l in lines if l.startswith("t ")) == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["diagnose", "--case", "DAR_EXAMPLE", "--p", "3", "--n", str(MAX_SUBDIVISIONS + 1)],
        ["diagnose", "--case", "DAR_EXAMPLE", "--p", str(MAX_DEGREE + 1), "--n", "2"],
        ["dump-mesh", "--n", str(MAX_SUBDIVISIONS + 1)],
    ],
)
def test_out_of_range_input_is_rejected_before_meshing(monkeypatch, capsys, argv):
    import trefftzdg.cli as cli

    def no_mesh(n):
        raise AssertionError(f"mesh with n={n} built")

    monkeypatch.setattr(cli, "build_structured_mesh", no_mesh)
    assert main(argv) == 2
    assert "outside supported range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,option",
    [
        (["run", "--case", "BOX_DIFFUSION_2D", "--methods", "dg", "--sigma", "nan"], "--sigma"),
        (["run", "--case", "BOX_DIFFUSION_2D", "--methods", "dg", "--sigma", "inf"], "--sigma"),
        (["run", "--case", "BOX_DIFFUSION_2D", "--methods", "etbox", "--box-scale", "nan"],
         "--box-scale"),
        (["run", "--case", "BOX_DIFFUSION_2D", "--methods", "etbox", "--box-scale", "inf"],
         "--box-scale"),
        (["diagnose", "--case", "DAR_EXAMPLE", "--sigma", "-1"], "--sigma"),
        (["diagnose", "--case", "DAR_EXAMPLE", "--sigma", "nan"], "--sigma"),
        (["diagnose", "--case", "DAR_EXAMPLE", "--kind", "DAR_BOX", "--box-scale", "nan"],
         "--box-scale"),
    ],
    ids=["run-sigma-nan", "run-sigma-inf", "run-box-nan", "run-box-inf",
         "diagnose-sigma-negative", "diagnose-sigma-nan", "diagnose-box-nan"],
)
def test_non_finite_penalty_and_box_scale_rejected_before_meshing(
    tmp_path, monkeypatch, capsys, argv, option
):
    import trefftzdg.cli as cli

    def no_mesh(n):
        raise AssertionError(f"mesh with n={n} built")

    monkeypatch.setattr(cli, "build_structured_mesh", no_mesh)
    out = ["--out", str(tmp_path / "x.csv")] if argv[0] == "run" else []
    assert main(argv + ["--p", "2", "--n", "1"] + out) == 2
    err = capsys.readouterr().err
    assert f"{option} must be positive and finite, got {float(argv[-1])}" in err


@pytest.mark.parametrize(
    "p,n,methods,message",
    [
        ("1", "2,2", "dg", "--n lists 2 more than once"),
        ("1,3,1", "2", "dg", "--p lists 1 more than once"),
        ("1", "2", "dg,et,dg", "--methods lists dg more than once"),
    ],
    ids=["n", "p", "methods"],
)
def test_repeated_values_rejected_before_meshing(tmp_path, monkeypatch, capsys, p, n, methods,
                                                 message):
    import trefftzdg.cli as cli

    def no_mesh(n):
        raise AssertionError(f"mesh with n={n} built")

    monkeypatch.setattr(cli, "build_structured_mesh", no_mesh)
    out = tmp_path / "x.csv"
    argv = ["run", "--case", "AR_EXAMPLE", "--p", p, "--n", n, "--methods", methods]
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,config,message",
    [
        (["--p", "2.5", "--n", "2"], "", "--p: '2.5'"),
        (["--p", "2", "--n", "two"], "", "--n: 'two'"),
        (["--p", "2", "--n", "2"], "sigma = abc\n", "--sigma: 'abc'"),
        (["--p", "2", "--n", "2"], "box_scale = abc\n", "--box-scale: 'abc'"),
    ],
    ids=["p", "n", "config-sigma", "config-box-scale"],
)
def test_malformed_numbers_name_their_option(tmp_path, monkeypatch, capsys, flags, config,
                                             message):
    import trefftzdg.cli as cli

    def no_mesh(n):
        raise AssertionError(f"mesh with n={n} built")

    monkeypatch.setattr(cli, "build_structured_mesh", no_mesh)
    cfg, out = tmp_path / "exp.cfg", tmp_path / "x.csv"
    cfg.write_text(config)
    argv = ["run", "--case", "DAR_EXAMPLE", "--methods", "dg", "--config", str(cfg), *flags]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_builds_no_volume_monomial_table_and_no_G(tmp_path, monkeypatch):
    # every method maps the reference basis: assembly, local operators and
    # error norms take the shared reference tables at the volume points,
    # and nothing orthonormalizes per element, only once per degree on the
    # reference triangle and on the unit box
    import trefftzdg.basis as basis
    import trefftzdg.local_ops as local_ops
    from trefftzdg.quadrature import duffy_rule_barycentric

    nq = len(duffy_rule_barycentric(2 * 3 + 4)[1])
    tables, orthonormalized = [], []
    originals = {"scaled_monomials": basis.scaled_monomials,
                 "_orthonormalizer": basis._orthonormalizer}

    def counting(points, *args, **kwargs):
        tables.append(np.shape(points)[:2])
        return originals["scaled_monomials"](points, *args, **kwargs)

    def recording(weights, mono):
        orthonormalized.append(np.shape(mono))
        return originals["_orthonormalizer"](weights, mono)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("trefftzdg"):
            for name, replacement in (("scaled_monomials", counting),
                                      ("_orthonormalizer", recording)):
                if getattr(module, name, None) is originals[name]:
                    monkeypatch.setattr(module, name, replacement)
    for cached in (basis._reference_basis, basis._reference_maps, basis.reference_tables,
                   basis.reference_products, local_ops._unit_box_test_basis):
        cached.cache_clear()
    assert main(["run", "--case", "BOX_DIFFUSION_2D", "--methods", "dg,et,etbox,qt",
                 "--p", "3", "--n", "2,4", "--out", str(tmp_path / "box.csv")]) == 0
    assert tables
    assert not [shape for shape in tables if shape[0] > 1 and shape[1] == nq]
    # degree 3 on the reference triangle's 25-point rule, degree 1 on the
    # unit box's 36-point rule
    assert sorted(orthonormalized) == [(1, 25, 10), (1, 36, 3)]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment configuration\n"
        "case = AR_EXAMPLE\n"
        "methods = dg\n"
        "p = 2\n"
        "n = 2,4\n"
        f"out = {tmp_path / 'from_file.csv'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_file.csv").exists()
    # flags take precedence over file values
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "cli.csv"),
                 "--n", "2"]) == 0
    lines = (tmp_path / "cli.csv").read_text().splitlines()
    assert len(lines) == 2


def test_config_file_rejects_a_repeated_key(tmp_path, monkeypatch, capsys):
    import trefftzdg.cli as cli

    def no_mesh(n):
        raise AssertionError(f"mesh with n={n} built")

    monkeypatch.setattr(cli, "build_structured_mesh", no_mesh)
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "x.csv"
    cfg.write_text(f"case = AR_EXAMPLE\nmethods = dg\np = 2\nn = 2\np = 3\nout = {out}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config key 'p' is set more than once" in capsys.readouterr().err
    assert not out.exists()
    # the option spelling names the same key
    cfg.write_text("box_scale = 0.25\nbox-scale = 0.5\n")
    with pytest.raises(cli.UsageError, match="'box_scale' is set more than once"):
        cli._load_config_file(cfg)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(case="AR_EXAMPLE", methods=(), p_list=(3,), n_list=(4,), out="x.csv")
    with pytest.raises(ValueError):
        ExperimentConfig(case="AR_EXAMPLE", methods=("dg",), p_list=(3,),
                         n_list=(4,), out="x.csv", sigma=-1.0)
    # a degree or a subdivision that is not an integer is not truncated
    with pytest.raises(ValueError, match="--p: 2.5"):
        ExperimentConfig(case="AR_EXAMPLE", methods=("dg",), p_list=(2.5,), n_list=(4,),
                         out="x.csv")
    with pytest.raises(ValueError, match="--n: True"):
        ExperimentConfig(case="AR_EXAMPLE", methods=("dg",), p_list=(3,), n_list=(True,),
                         out="x.csv")
    cfg = ExperimentConfig(case="DAR_EXAMPLE", methods=("dg", "et"),
                           p_list=(3,), n_list=(2,), out="x.csv")
    rows = run_experiment(cfg, write=False)
    assert len(rows) == 2


def test_config_file_rejects_unknown_keys(tmp_path, monkeypatch, capsys):
    import trefftzdg.cli as cli

    def no_mesh(n):
        raise AssertionError(f"mesh with n={n} built")

    monkeypatch.setattr(cli, "build_structured_mesh", no_mesh)
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "x.csv"
    cfg.write_text(f"case = DAR_EXAMPLE\nmethods = dg\np = 2\nn = 2\nsigmaa = 5\nout = {out}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown config key 'sigmaa'" in err
    assert "case, methods, p, n, sigma, box_scale, out" in err
    assert not out.exists()
    # the option spelling of a key is accepted
    cfg.write_text("box-scale = 0.25\n")
    assert cli._load_config_file(cfg) == {"box_scale": "0.25"}


@pytest.mark.parametrize(
    "case,kind",
    [("DAR_EXAMPLE", "QT_DIFFUSION"), ("DAR_EXAMPLE", "AR"), ("BOX_DIFFUSION_2D", "AR"),
     ("AR_EXAMPLE", "DAR"), ("AR_EXAMPLE", "DAR_BOX"), ("AR_EXAMPLE", "QT_DIFFUSION")],
)
def test_diagnose_rejects_a_kind_that_does_not_fit_the_case(monkeypatch, capsys, case, kind):
    # AR drops the diffusion of a diffusion case, and the quasi-Trefftz
    # kernel reads only alpha and f: either would report clean witnesses
    # for another PDE than the case's
    import trefftzdg.cli as cli

    def no_mesh(n):
        raise AssertionError(f"mesh with n={n} built")

    monkeypatch.setattr(cli, "build_structured_mesh", no_mesh)
    assert main(["diagnose", "--case", case, "--kind", kind, "--p", "3", "--n", "2"]) == 2
    assert f"--kind: case {case} takes the local operator kinds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case,kind",
    [("AR_EXAMPLE", "AR"), ("DAR_EXAMPLE", "DAR"), ("DAR_EXAMPLE", "DAR_BOX"),
     ("BOX_DIFFUSION_2D", "QT_DIFFUSION"), ("QT_DIFFUSION", "DAR_BOX")],
)
def test_diagnose_accepts_the_kinds_of_the_case(capsys, case, kind):
    assert main(["diagnose", "--case", case, "--kind", kind, "--p", "2", "--n", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--case", "AR_EXAMPLE", "--p", "3", "--n", "2,4", "--methods", "dg"],
        ["diagnose", "--case", "DAR_EXAMPLE", "--p", "3", "--n", "2"],
        ["dump-mesh", "--n", "2"],
    ],
    ids=["run", "diagnose", "dump-mesh"],
)
@pytest.mark.parametrize("where", ["missing", "file", "directory"])
def test_unusable_out_path_is_rejected_before_any_work(tmp_path, monkeypatch, capsys, argv,
                                                       where):
    import trefftzdg.analysis as analysis
    import trefftzdg.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in ((cli, "build_structured_mesh"), (cli, "assemble_global_system"),
                         (analysis, "assemble_global_system")):
        monkeypatch.setattr(module, name, no_work)
    (tmp_path / "file").write_text("")
    out = {"missing": tmp_path / "nonexistent" / "o.csv", "file": tmp_path / "file" / "o.csv",
           "directory": tmp_path}[where]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--out {out}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "run-config", "diagnose"])
def test_penalty_for_data_without_diffusion_is_rejected_before_meshing(
    tmp_path, monkeypatch, capsys, command
):
    # the upwind form of AR_EXAMPLE has no penalty term, so a given sigma
    # would change nothing
    import trefftzdg.cli as cli

    def no_mesh(n):
        raise AssertionError(f"mesh with n={n} built")

    monkeypatch.setattr(cli, "build_structured_mesh", no_mesh)
    out = str(tmp_path / "x.csv")
    argv = {
        "run": ["run", "--methods", "dg,et", "--sigma", "10", "--out", out],
        "run-config": ["run", "--methods", "dg", "--config", str(tmp_path / "cfg"), "--out", out],
        "diagnose": ["diagnose", "--sigma", "10"],
    }[command]
    (tmp_path / "cfg").write_text("sigma = 10\n")
    assert main(argv + ["--case", "AR_EXAMPLE", "--p", "3", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "--sigma" in err and "AR_EXAMPLE" in err
    assert not (tmp_path / "x.csv").exists()


def test_run_takes_the_ar_operators_from_assembly(tmp_path, monkeypatch):
    from trefftzdg import cli, embedding, local_ops

    calls, systems = [], []
    assemble, operators = cli.assemble_global_system, local_ops.assemble_local_operators

    def counting(kind, *args, **kwargs):
        calls.append(kind)
        return operators(kind, *args, **kwargs)

    def recording(*args, **kwargs):
        systems.append(assemble(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(embedding, "assemble_local_operators", counting)
    monkeypatch.setattr(local_ops, "assemble_local_operators", counting)
    monkeypatch.setattr(cli, "assemble_global_system", recording)
    for methods in ("dg", "et", "dg,et"):
        out = tmp_path / f"{methods}.csv"
        assert main(["run", "--case", "AR_EXAMPLE", "--methods", methods,
                     "--p", "3", "--n", "2,4", "--out", str(out)]) == 0
    assert calls == []
    # a dg-only run keeps no local operators; the others keep the AR ones
    assert [s.local_operators is None for s in systems] == [True] * 2 + [False] * 4
    # without a system, the library assembles them itself
    embedding.build_embedding(systems[-1].space, trefftzdg.builtin_case("AR_EXAMPLE"), local_ops.AR)
    assert calls == [local_ops.AR]
