import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from sbmpot import bernstein, cli

GOLD_U1 = 0.5641895835477563       # 1/sqrt(pi)
GOLD_G3 = 0.05066059182116889      # 1/(2 pi^2)


def _rows(text):
    lines = text.strip().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def _run(capsys, argv):
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def test_phi_table_stable(capsys):
    rc, out = _run(capsys, ["phi", "--kind", "stable", "--alpha", "1",
                            "--lmin", "1", "--lmax", "100", "--points", "3"])
    assert rc == 0
    rows = _rows(out)
    assert [r["lambda"] for r in rows] == ["1", "10", "100"]
    phis = [float(r["phi"]) for r in rows]
    assert phis == pytest.approx([1.0, math.sqrt(10.0), 10.0], rel=1e-15)
    for r in rows:
        assert float(r["psi"]) == pytest.approx(float(r["lambda"]) / float(r["phi"]), rel=1e-15)
        assert float(r["ell"]) == pytest.approx(1.0, rel=1e-14)


def test_phi_json_entry_flag(capsys):
    rc, out = _run(capsys, ["phi", "--phi", '{"kind": "stable", "alpha": 1.0}',
                            "--lambda", "4", "--format", "json"])
    assert rc == 0
    rec = json.loads(out)[0]
    assert rec["phi"] == pytest.approx(2.0, rel=1e-15)


def test_density_single_point(capsys):
    rc, out = _run(capsys, ["density", "--kind", "stable", "--alpha", "1", "--t", "1"])
    assert rc == 0
    row = _rows(out)[0]
    assert float(row["u"]) == pytest.approx(GOLD_U1, rel=1e-8)
    assert float(row["tail"]) > 0.0 and float(row["mu"]) > 0.0


def test_kernel_single_radius(capsys):
    rc, out = _run(capsys, ["kernel", "--kind", "stable", "--alpha", "1",
                            "--dim", "3", "--r", "1"])
    assert rc == 0
    row = _rows(out)[0]
    assert float(row["G"]) == pytest.approx(GOLD_G3, rel=1e-6)
    assert float(row["J"]) == pytest.approx(1.0 / math.pi**2, rel=1e-6)


def test_kernel_table_of_one_radius(capsys):
    # --points 1 is the range's first radius, written as the wider table writes it
    grid = ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--rmin", "0.1", "--rmax", "1"]
    rc, out = _run(capsys, [*grid, "--points", "1"])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 1 and float(rows[0]["r"]) == 0.1
    assert float(rows[0]["G"]) == pytest.approx(GOLD_G3 * 100.0, rel=1e-6)
    rc, wide = _run(capsys, [*grid, "--points", "3"])
    assert rc == 0 and _rows(wide)[0] == rows[0]


def test_ladder_chi_value(capsys):
    rc, out = _run(capsys, ["ladder", "chi", "--kind", "stable", "--alpha", "1",
                            "--lambda", "4"])
    assert rc == 0
    row = _rows(out)[0]
    assert float(row["chi"]) == pytest.approx(2.0, rel=1e-8)
    assert float(row["ratio"]) == pytest.approx(1.0, rel=1e-8)


def test_ladder_halfline_value(capsys):
    rc, out = _run(capsys, ["ladder", "halfline", "--kind", "stable", "--alpha", "1",
                            "--x", "1", "--y", "2"])
    assert rc == 0
    row = _rows(out)[0]
    expect = (2.0 / math.pi) * math.log(1.0 + math.sqrt(2.0))
    assert float(row["G_halfline"]) == pytest.approx(expect, abs=1e-4)


def test_ladder_halfline_requires_coords(capsys):
    base = ["ladder", "halfline", "--kind", "stable", "--alpha", "1"]
    for flags in ([], ["--y", "2"], ["--x", "1"], ["--x", "1", "--ymin", "3"],
                  ["--x", "1", "--ymax", "3"]):
        rc, out = _run(capsys, base + flags)
        assert rc == 2 and out == "", flags


def test_ladder_halfline_range_needs_no_point(capsys):
    rc, out = _run(capsys, ["ladder", "halfline", "--kind", "stable", "--alpha", "1",
                            "--x", "1", "--ymin", "2", "--ymax", "4", "--points", "2"])
    assert rc == 0
    assert [r["y"] for r in _rows(out)] == ["2", "4"]


def test_csv_values_round_trip(capsys):
    rc, out = _run(capsys, ["phi", "--kind", "stable", "--alpha", "0.5",
                            "--lambda", "2"])
    assert rc == 0
    row = _rows(out)[0]
    assert float(row["phi"]) == 2.0**0.25


def test_check_sandwich_passes(capsys):
    rc, out = _run(capsys, ["check", "sandwich", "--kind", "sum", "--alpha", "1"])
    assert rc == 0
    assert _rows(out)[0]["pass"] == "true"


def test_check_zahle_passes(capsys):
    rc, out = _run(capsys, ["check", "zahle", "--kind", "stable", "--alpha", "0.5"])
    assert rc == 0
    assert _rows(out)[0]["pass"] == "true"


def test_check_doubling_passes(capsys):
    rc, out = _run(capsys, ["check", "doubling", "--kind", "stable", "--alpha", "1",
                            "--dim", "1"])
    assert rc == 0


def test_check_asym_passes(capsys):
    rc, out = _run(capsys, ["check", "asym", "--kind", "sum", "--alpha", "1",
                            "--dim", "3"])
    assert rc == 0
    rows = _rows(out)
    assert {r["quantity"] for r in rows} == {"u", "mu", "G", "j"}
    assert all(float(r["spread"]) < 1e3 for r in rows)


# each analytic check, its flags besides the exponent flags, and the library
# calls whose reports give its rows
ANALYTIC_CHECKS = {
    "sandwich": ([], ["chi_sandwich_check"]),
    "zahle": ([], ["zahle_upper_check"]),
    "doubling": (["--dim", "2"], ["j_doubling_and_shift"]),
    "asym": (["--dim", "3"], ["u_asymptotic_ratio", "mu_asymptotic_ratio", "g_asymptotic_ratio",
                              "j_asymptotic_ratio"]),
}


@pytest.mark.parametrize("kind", ["stable", "relativistic", "sum", "log_up", "log_down", "geometric_example"])
@pytest.mark.parametrize("check", list(ANALYTIC_CHECKS))
def test_check_pass_cell_is_the_library_verdict(capsys, monkeypatch, check, kind):
    # the CLI decides no verdict: each pass cell is the passed of the report
    # the library returned for that row (doubling's pair shares one); the
    # geometric kind's mu window fails, with a spread of 1.1e4
    flags, names = ANALYTIC_CHECKS[check]
    reports = []
    for name in names:
        def record(*args, _call=getattr(cli, name)):
            reports.append(_call(*args))
            return reports[-1]
        monkeypatch.setattr(cli, name, record)
    argv = ["check", check, "--kind", kind, *KIND_FLAGS[kind][0], *flags]
    rc, out = _run(capsys, argv)
    verdicts = [rep[0].passed if check == "doubling" else rep.passed for rep in reports]
    assert [row["pass"] for row in _rows(out)] == [str(v).lower() for v in verdicts]
    assert rc == (0 if all(verdicts) else 1)
    assert all(verdicts) is not ((check, kind) == ("asym", "geometric_example"))


def test_failed_check_returns_one_with_report(capsys):
    # deliberately underpowered run: the stability gate must reject it
    rc, out = _run(capsys, ["check", "bhp", "--kind", "stable", "--alpha", "1",
                            "--r", "0.05", "--paths", "12", "--seed", "3",
                            "--format", "json"])
    rows = json.loads(out)
    assert rows[0]["check"] == "bhp"
    if rows[0]["pass"]:
        pytest.skip("underpowered run passed by luck; exit-code path covered elsewhere")
    assert rc == 1


def test_simulate_exit_summary(capsys):
    rc, out = _run(capsys, ["simulate", "exit", "--kind", "stable", "--alpha", "1",
                            "--paths", "400", "--seed", "9", "--format", "json"])
    assert rc == 0
    rec = json.loads(out)[0]
    assert rec["n"] + rec["censored"] == 400
    assert rec["mean"] == pytest.approx(1.0, abs=6.0 * rec["std_error"] + 0.05)


def test_simulate_csv_deterministic(capsys):
    argv = ["simulate", "exit", "--kind", "stable", "--alpha", "1",
            "--paths", "200", "--seed", "4"]
    rc1, out1 = _run(capsys, argv)
    rc2, out2 = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "path,tau,x1,exited_by_jump"


# sha256 of stdout for one command line per branch of the CLI, as CSV and as
# JSON, so a change to how tables are built or written cannot move a byte
# unnoticed; the last pin is the empty table (every path censored)
RENDER_PINS = {
    "phi": (
        "phi --kind sum --alpha 1 --lmin 0.1 --lmax 10 --points 3", 0,
        "3fd6e7b36430fa02640119803d67c11b610af29cd79b2331d6e8cefd0da00d0e",
        "209abfed52e7a34ef4a0f58a5e724b2a96e245291a59705ec8caa67f34a9d410"),
    "density": (
        "density --kind stable --alpha 1.5 --tmin 0.01 --tmax 1 --points 3", 0,
        "03a6cb49d9841fc01c426c055fc6ae5a02ead25b77fcddfa3c37d92c042b7a65",
        "56c678f87db2bfe1ce411ce31ea4b90d84e9a2757995dcafb733f86e9d3dd399"),
    "kernel-r": (
        "kernel --kind stable --alpha 1 --dim 3 --r 0.5", 0,
        "b144f68f0d90b4a30e540a844b1393b2e5f19f99273b3fabc4ad14223866080d",
        "82359658115307c52a7bc6a507d68f926f3b74f7e15bc6f62a94aada9eb77710"),
    "kernel-grid": (
        "kernel --kind stable --alpha 1 --dim 3 --rmin 0.1 --rmax 1 --points 3", 0,
        "104f08bd92816c6bc14d3bea616cce68577950d39ab9fbb444e2a61479c384a0",
        "3e487124d4735320e17140b8ca4a66130a56e5641a36339a92ba35bd89e8afaa"),
    "ladder-chi": (
        "ladder chi --kind stable --alpha 1.5 --lmin 0.1 --lmax 10 --points 3", 0,
        "a26e91c69d7dc2e721d2fa775cb9743f9b2188b5f576d0f5470bc3cc0a64ea84",
        "1e2c0ea991c384606106c38b642e4a7c484a68bf2eadc952d9d8e5e5595503d3"),
    "ladder-v": (
        "ladder v --kind stable --alpha 1 --tmin 0.1 --tmax 1 --points 2", 0,
        "bf622cac4a3daf1bf0286790c2caae654a1fd3eae2af6d9a15929b59aa8943c9",
        "5da21729310a024c5b54a87c462d614afcef6b787bf5beb8a86524a3c882597b"),
    "ladder-halfline": (
        "ladder halfline --kind stable --alpha 1 --x 1 --y 2", 0,
        "cbc5195c4d961357a9042a3f81e501b00ef50b138fe23fa5f5933f3a848f3748",
        "0862fcf2a6613ea6da48c4b891924132e7e1ad95b22a7a434740c4c7893e0899"),
    "check-sandwich": (
        "check sandwich --kind stable --alpha 1", 0,
        "0767d2bd7c252b1ae5d354c1547d5203ae279463becebdb24a206a695d296619",
        "b59cdf5f4789dc6d66d8c98529cff576561091083a9f93731de171aa1abd4c14"),
    "check-zahle": (
        "check zahle --kind stable --alpha 0.5", 0,
        "5c9b23d7dac8c56d8f9f27bc0bb7022465cbdb61dd9d361e872dcbbc02d74271",
        "e41e463e9a5ed8af490d0487d244d85b6f0536fcef1b895b47dea4e44fface6a"),
    "check-doubling": (
        "check doubling --kind stable --alpha 1 --dim 1", 0,
        "109d6d9c6221ccd2ce4d5731bf38595ef429faa200a2cf67bc5dc9cc619be80f",
        "7ef7a429c1d68f3af8ab81e138928d13310906b627abd0eb162c34dfb16bd361"),
    "check-asym": (
        "check asym --kind stable --alpha 1 --dim 3", 0,
        "a2f7bf0f14fcb04ce68b6f6cc6f010a8fcab9be55a659574720286a8a2ffe330",
        "688fdedbab9a439706d5d4f418079300bc5fe0adf0f1ec42159eb65bd544a25f"),
    "check-harnack": (
        "check harnack --kind stable --alpha 1 --paths 20 --seed 3", 1,
        "9e6b2a3f1c18602f90e02b5b6b3a4dec9abce53ff3362480d14643ad45d6723d",
        "8d8bf23b00c226ad372170087105a50ff696a562145915ab674fea18e5cbac34"),
    "check-bhp": (
        "check bhp --kind stable --alpha 1 --paths 20 --seed 3", 1,
        "796f6f1d2b2912f2d766a56ac7656d38de54aa888b4c7d88852348b2a6909ee7",
        "311204503af458df9bee64361c6918597e511a09dec69e5a65e030c8b9609f2d"),
    "simulate-exit": (
        "simulate exit --kind stable --alpha 1 --paths 8 --seed 1 --dim 2 --x0 0.1,0.2", 0,
        "9410d89f62c3b6848ef8a4a7efbe64a4604774a7d4759bc2a162018d5944afbf",
        "1c467a0a4fd9bd090c060110410837d453cde9cbdc5629a7eea292e99cd8f7c1"),
    "simulate-exit-empty": (
        "simulate exit --kind stable --alpha 1 --paths 5 --seed 1 --step 1e-6 --horizon 1e-5", 0,
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "9aecbafeaf9c7c6a0a48c4bc15a89b6eff3d7c2233747e8a25a7eb163d8443f1"),
}


@pytest.mark.parametrize("line, rc, csv_sha, json_sha", list(RENDER_PINS.values()),
                         ids=list(RENDER_PINS))
def test_rendered_bytes_pinned(capsys, line, rc, csv_sha, json_sha):
    for fmt, sha in (("csv", csv_sha), ("json", json_sha)):
        got_rc, out = _run(capsys, line.split() + ["--format", fmt])
        assert got_rc == rc
        assert hashlib.sha256(out.encode()).hexdigest() == sha, (fmt, out)


def test_empty_table(capsys):
    argv = ["simulate", "exit", "--kind", "stable", "--alpha", "1", "--paths", "5",
            "--seed", "1", "--step", "1e-6", "--horizon", "1e-5"]
    rc, out = _run(capsys, argv)
    assert rc == 0 and out == "\n"
    rc, out = _run(capsys, argv + ["--format", "json"])
    rec = json.loads(out)[0]
    assert rc == 0 and rec["n"] == 0 and rec["censored"] == 5 and math.isnan(rec["mean"])


def test_simulate_refuses_truncated_poisson_table(capsys):
    # rate*dt is about 646 here: past the 400-term table, so exit 2, not
    # 400 jumps per step for every path
    rc = cli.main(["simulate", "exit", "--kind", "sum", "--alpha", "1", "--paths", "5",
                   "--seed", "1", "--step", "10", "--horizon", "20", "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "rate*dt" in captured.err and "--step" in captured.err


def test_output_manifest_and_replay(tmp_path, capsys):
    art = tmp_path / "exit.csv"
    argv = ["simulate", "exit", "--kind", "stable", "--alpha", "1",
            "--paths", "150", "--seed", "5", "--output", str(art)]
    assert cli.main(argv) == 0
    manifest_path = tmp_path / "exit.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "simulate"
    assert manifest["flags"] == argv
    assert manifest["seed"] == 5
    assert set(manifest) == {"command", "flags", "seed", "artifact_version", "timestamp"}
    first = art.read_bytes()
    art.unlink()
    assert cli.main(["--from-manifest", str(manifest_path)]) == 0
    assert art.read_bytes() == first


@pytest.mark.parametrize("argv, seed", [
    (["check", "sandwich", "--kind", "stable", "--alpha", "1"], None),
    (["check", "harnack", "--kind", "stable", "--alpha", "1", "--paths", "20", "--seed", "3"], 3),
])
def test_manifest_records_only_a_seed_the_mode_reads(tmp_path, capsys, argv, seed):
    art = tmp_path / "check.csv"
    cli.main(argv + ["--output", str(art)])
    manifest = json.loads((tmp_path / "check.csv.manifest.json").read_text())
    assert manifest["seed"] == seed


def test_parser_reuse_carries_nothing_over(tmp_path, capsys):
    # each command first runs on a freshly built parser, then all run again
    # in one sequence on the cached one, each after a call that set the flags
    # it leaves at their defaults; the artifacts must not change by a byte
    runs = [
        ["phi", "--kind", "sum", "--alpha", "1", "--beta", "0.9", "--lambda", "2", "--format", "json"],
        ["phi", "--kind", "sum", "--alpha", "1", "--lambda", "2"],
        ["check", "sandwich", "--kind", "log_up", "--alpha", "1", "--gamma", "0.8"],
        ["check", "sandwich", "--kind", "log_up", "--alpha", "1"],
        ["simulate", "exit", "--kind", "stable", "--alpha", "1", "--paths", "50", "--seed", "4",
         "--dim", "2", "--x0", "0.1,0.2", "--radius", "2"],
        ["simulate", "exit", "--kind", "stable", "--alpha", "1", "--paths", "50"],
        ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--r", "0.5"],
        ["density", "--kind", "stable", "--alpha", "1", "--t", "0.5"],
    ]

    def run(i, tag):
        art = tmp_path / f"{tag}{i}.out"
        assert cli.main(runs[i] + ["--output", str(art)]) == 0
        return art.read_bytes()

    first = []
    for i in range(len(runs)):
        cli._build_parser.cache_clear()
        first.append(run(i, "first"))
    assert first[0] != first[1] and first[2] != first[3] and first[4] != first[5]
    for i in range(len(runs)):
        assert run(i, "again") == first[i], runs[i]
    assert capsys.readouterr().out == ""


def test_from_manifest_missing_file(capsys):
    assert cli.main(["--from-manifest", "/nonexistent/m.json"]) == 2
    assert "cannot replay manifest: [Errno 2] No such file or directory" in capsys.readouterr().err


def test_from_manifest_that_does_not_parse_keeps_the_parser_message(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    assert cli.main(["--from-manifest", str(path)]) == 2
    assert "cannot replay manifest: Expecting property name" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", ["[1, 2]", '{"flags": 5}', '{"flags": null}', '{"flags": "abc"}', "{}"])
def test_from_manifest_without_a_flag_list_is_usage_error(tmp_path, capsys, manifest):
    # a manifest that parses but holds no list of flags raised TypeError, exit 1,
    # or (a string of flags) was split into characters for argparse to refuse
    path = tmp_path / "m.json"
    path.write_text(manifest)
    assert cli.main(["--from-manifest", str(path)]) == 2
    assert "cannot replay manifest: it is not a JSON object whose flags are a list" in capsys.readouterr().err


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    # a missing directory raised FileNotFoundError, exit 1
    target = tmp_path / "missing" / "x.csv"
    assert cli.main(["phi", "--kind", "stable", "--alpha", "1", "--lambda", "2", "--output", str(target)]) == 2
    assert "No such file or directory" in capsys.readouterr().err and not target.parent.exists()


def test_non_integral_n_is_refused(capsys):
    # a fraction is refused as JSON and as a flag; an integral float is its integer
    spec = '{"kind": "geometric_example", "alpha": 1.0, "n": %s}'
    assert cli.main(["phi", "--phi", spec % "64.7", "--lambda", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "64.7 is not an integer" in err
    assert cli.main(["phi", "--kind", "geometric_example", "--alpha", "1", "--n", "64.7"]) == 2
    assert "invalid integer value: '64.7'" in capsys.readouterr().err
    assert _run(capsys, ["phi", "--phi", spec % "64.0", "--lambda", "2"]) == _run(
        capsys, ["phi", "--phi", spec % "64", "--lambda", "2"])
    assert bernstein.phi_from_json(spec % "64.0").n_terms == 64


def test_malformed_phi_json_is_usage_error(capsys):
    rc, _ = _run(capsys, ["phi", "--phi", "{not json", "--lambda", "1"])
    assert rc == 2


@pytest.mark.parametrize("spec", [
    '{"kind": "stable", "alpha": "x"}',
    '{"kind": "stable", "alpha": null}',
    '{"kind": "geometric_example", "alpha": 1.0, "n": "a"}',
    '"stable"',
    '[1, 2]',
])
def test_malformed_phi_entry_is_usage_error(capsys, spec):
    rc, out = _run(capsys, ["phi", "--phi", spec, "--lambda", "1"])
    assert rc == 2 and out == ""


def test_phi_string_reports_object_error(capsys):
    assert cli.main(["phi", "--phi", '"stable"', "--lambda", "1"]) == 2
    assert "must be an object" in capsys.readouterr().err


def test_geometric_overflowing_truncation_is_usage_error(capsys):
    rc, out = _run(capsys, ["phi", "--kind", "geometric_example", "--alpha", "1",
                            "--n", "100000"])
    assert rc == 2 and out == ""
    rc, out = _run(capsys, ["phi", "--kind", "geometric_example", "--alpha", "1.99"])
    assert rc == 2 and out == ""


# one --kind command line per JSON kind, with the --phi entry it must match
KIND_FLAGS = {
    "stable": (["--alpha", "0.7"], {"alpha": 0.7}),
    "relativistic": (["--alpha", "1.2", "--m", "0.3"], {"alpha": 1.2, "m": 0.3}),
    "sum": (["--alpha", "1.3", "--beta", "0.4"], {"alpha": 1.3, "beta": 0.4}),
    "log_up": (["--alpha", "0.9", "--gamma", "0.6"], {"alpha": 0.9, "gamma": 0.6}),
    "log_down": (["--alpha", "1.1"], {"alpha": 1.1, "beta": 0.5}),
    "geometric_example": (["--alpha", "0.8", "--n", "70"], {"alpha": 0.8, "n": 70}),
}


@pytest.mark.parametrize("kind", list(KIND_FLAGS))
def test_kind_flags_match_phi_json(capsys, kind):
    flags, params = KIND_FLAGS[kind]
    grid = ["--lmin", "0.01", "--lmax", "100", "--points", "7"]
    rc1, by_kind = _run(capsys, ["phi", "--kind", kind, *flags, *grid])
    rc2, by_json = _run(capsys, ["phi", "--phi", json.dumps({"kind": kind, **params}), *grid])
    assert rc1 == rc2 == 0
    assert by_kind == by_json


def _leaf_parsers():
    """{"phi": parser, ..., "check bhp": parser}: one parser per command or mode."""
    leaves = {}
    for name, sub in cli._build_parser()._subparsers._group_actions[0].choices.items():
        if sub._subparsers is None:
            leaves[name] = sub
        else:
            for mode, leaf in sub._subparsers._group_actions[0].choices.items():
                leaves[f"{name} {mode}"] = leaf
    return leaves


def test_kind_choices_come_from_the_registry():
    assert list(KIND_FLAGS) == list(bernstein.JSON_KINDS)
    params = {q.name: q.coerce for k in bernstein.JSON_KINDS for q in bernstein.KINDS[k].params}
    leaves = _leaf_parsers()
    assert len(leaves) == 13
    for name, sub in leaves.items():
        kind = [a for a in sub._actions if "--kind" in a.option_strings]
        assert len(kind) == 1 and tuple(kind[0].choices) == bernstein.JSON_KINDS, name
        # one flag per parameter name, typed as the kind's JSON value
        flags = {a.dest: a.type for a in sub._actions if a.dest in params}
        assert flags == params, name


# the flags each command or mode reads, besides the exponent flags (--kind,
# --phi and one per catalog parameter), --format and --output
LEAF_FLAGS = {
    "phi": "--lambda --lmin --lmax --points",
    "density": "--t --tmin --tmax --points",
    "kernel": "--dim --r --rmin --rmax --points",
    "ladder chi": "--lambda --lmin --lmax --points",
    "ladder v": "--t --tmin --tmax --points",
    "ladder halfline": "--x --y --ymin --ymax --points",
    "check sandwich": "",
    "check zahle": "",
    "check doubling": "--dim --K",
    "check asym": "--dim",
    "check harnack": "--dim --r --paths --seed --eps",
    "check bhp": "--r --paths --seed --eps --domain",
    "simulate exit": "--dim --radius --x0 --paths --seed --eps --step --horizon",
}


def test_each_mode_takes_only_its_own_flags(capsys):
    shared = {"-h", "--help", "--kind", "--phi", "--format", "--output",
              *(f"--{q.name}" for k in bernstein.JSON_KINDS for q in bernstein.KINDS[k].params)}
    leaves = _leaf_parsers()
    got = {name: {o for a in sub._actions for o in a.option_strings} - shared
           for name, sub in leaves.items()}
    assert got == {name: set(flags.split()) for name, flags in LEAF_FLAGS.items()}
    assert sum(map(len, got.values())) == 47
    # a flag another mode reads is refused, not parsed and ignored
    for line in ("check sandwich --paths 5", "check harnack --K 2", "check bhp --dim 2",
                 "ladder chi --x 1", "ladder v --lambda 2"):
        rc, out = _run(capsys, line.split() + ["--kind", "stable", "--alpha", "1"])
        assert rc == 2 and out == "", line


def test_unknown_kind_in_phi_json(capsys):
    rc, _ = _run(capsys, ["phi", "--phi", '{"kind": "mystery", "alpha": 1.0}',
                          "--lambda", "1"])
    assert rc == 2


def test_zero_paths_is_usage_error(capsys):
    rc, _ = _run(capsys, ["simulate", "exit", "--kind", "stable", "--alpha", "1",
                          "--paths", "0"])
    assert rc == 2


def test_unknown_flag_is_usage_error(capsys):
    rc = cli.main(["phi", "--kind", "stable", "--alpha", "1", "--frobnicate"])
    assert rc == 2


def test_unread_flag_is_refused_with_the_mode_usage(capsys):
    # the usage line of the mode lists the flags it takes; the top-level
    # one would only list the commands
    rc = cli.main(["check", "sandwich", "--kind", "stable", "--alpha", "1", "--paths", "5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("usage: sbmpot check sandwich ")
    assert err.rstrip().endswith("sbmpot check sandwich: error: unrecognized arguments: --paths 5")


def test_simulate_has_no_method_flag(capsys):
    # the kind picks a march's increments; a manifest recorded with
    # --method no longer replays
    rc = cli.main(["simulate", "exit", "--kind", "stable", "--alpha", "1", "--paths", "10",
                   "--method", "exact"])
    assert rc == 2


def test_largest_seed_runs(capsys):
    # 2**64 - 1 is the largest Philox key; -1 and 2**64 are usage errors
    # (test_out_of_range_input_is_usage_error), never aliases of a valid key
    rc, out = _run(capsys, ["simulate", "exit", "--kind", "stable", "--alpha", "1",
                            "--paths", "20", "--seed", str(2**64 - 1)])
    assert rc == 0 and out.startswith("path,tau,x1,exited_by_jump\n")


def test_recurrent_kernel_is_usage_error(capsys):
    rc, _ = _run(capsys, ["kernel", "--kind", "stable", "--alpha", "1.5",
                          "--dim", "1", "--r", "1"])
    assert rc == 2


def test_missing_alpha_is_usage_error(capsys):
    rc, _ = _run(capsys, ["phi", "--kind", "stable", "--lambda", "1"])
    assert rc == 2


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0


# runs sbmpot commands in a fresh interpreter and prints the exit codes and
# which of scipy's quadrature and spline stacks they loaded
_IMPORT_PROBE = """
import contextlib, io, json, sys
from sbmpot import cli
codes = []
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(line.split()))
print(json.dumps([codes, [m for m in ("scipy.integrate", "scipy.interpolate") if m in sys.modules]]))
"""


def _fresh_run(*lines):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *lines], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_without_quadrature_leave_scipy_stacks_unloaded():
    # no command integrates with scipy or builds a spline, so none starts
    # scipy.integrate or scipy.interpolate (and the optimize, linalg and sparse
    # stacks they pull in)
    codes, loaded = _fresh_run(
        "phi --kind stable --alpha 1 --points 3",
        "density --kind relativistic --alpha 1 --points 3",
        "ladder chi --kind sum --alpha 1 --points 3",
        "ladder halfline --kind sum --alpha 1 --x 1 --y 2",
        "check zahle --kind stable --alpha 0.5",
        "check bhp --kind stable --alpha 1 --paths 50 --seed 1",
        "simulate exit --kind stable --alpha 1 --paths 50 --seed 1",
        "simulate exit --kind relativistic --alpha 1 --paths 50 --seed 1")
    assert codes[:5] == [0, 0, 0, 0, 0] and codes[5] in (0, 1) and codes[6:] == [0, 0]
    assert loaded == []


def test_kernel_loads_scipy_stacks_on_first_use():
    # the kernels are integrals on phi's cut, on the package's own rule: neither
    # stack loads, on a kind with closed kernels or without
    codes, loaded = _fresh_run("kernel --kind log_up --alpha 1 --dim 3 --r 0.5",
                               "check asym --kind sum --alpha 1 --dim 2",
                               "check doubling --kind relativistic --alpha 1 --dim 2",
                               "kernel --kind geometric_example --alpha 1 --dim 1 --r 0.5")
    assert codes == [0, 0, 0, 0]
    assert loaded == []


def test_kernel_of_a_radius_does_not_depend_on_its_grid(capsys):
    # the sum kind's G at r = 1e-3 in d = 1, alone and as the first row of a
    # table: 2.0398202372277399, where mpmath gives 2.03982024 (a spline of u
    # once wrote 2.0398295 alone and 2.0398202 in the table)
    rc, alone = _run(capsys, ["kernel", "--kind", "sum", "--alpha", "1", "--dim", "1", "--r", "0.001"])
    assert rc == 0
    rc, table = _run(capsys, ["kernel", "--kind", "sum", "--alpha", "1", "--dim", "1",
                              "--rmin", "0.001", "--rmax", "1", "--points", "4"])
    assert rc == 0
    assert alone.splitlines()[1] == table.splitlines()[1]
    assert alone.splitlines()[1].split(",")[1] == "2.0398202372277399"


@pytest.mark.parametrize("argv", [
    "ladder v --kind log_down --alpha 1 --tmin 0.001 --tmax 1000 --points 7",
    "ladder halfline --kind geometric_example --alpha 1 --x 1 --y 2",
    # the geometric ladder ops of the benchmark's analytic workload at seed 1
    "ladder v --kind geometric_example --alpha 0.7109208081296103 --tmin 0.047774146814670355 "
    "--tmax 3.142021951827391 --points 13",
    "ladder halfline --kind geometric_example --alpha 1.2301984485165318 --x 0.8471688511771176 "
    "--y 2.033449289837643",
])
def test_ladder_ops_on_wide_grids_and_pole_kinds_pass(capsys, argv):
    # v and V from phi's cut or poles, certified per point: exit 0, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv.split())
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--rmin", "2", "--rmax", "1"],
    ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--points", "0"],
    ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--r", "0"],
    ["kernel", "--kind", "relativistic", "--alpha", "1", "--dim", "3", "--r", "0"],
    ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "0", "--r", "1"],
    ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--rmin", "0"],
    ["ladder", "halfline", "--kind", "stable", "--alpha", "1", "--x", "-1", "--y", "1"],
    ["ladder", "halfline", "--kind", "stable", "--alpha", "1", "--x", "1", "--y", "1",
     "--ymin", "0", "--ymax", "1"],
    ["phi", "--kind", "stable", "--alpha", "1", "--lmin", "0"],
    ["phi", "--kind", "stable", "--alpha", "1", "--points", "0"],
    ["density", "--kind", "stable", "--alpha", "1", "--tmin", "0"],
    ["density", "--kind", "stable", "--alpha", "1", "--t", "-1"],
    ["ladder", "v", "--kind", "stable", "--alpha", "1", "--tmin", "1", "--tmax", "0.5"],
    ["check", "doubling", "--kind", "stable", "--alpha", "1", "--dim", "0"],
    ["check", "harnack", "--kind", "stable", "--alpha", "1", "--dim", "0", "--paths", "10"],
    ["check", "harnack", "--kind", "stable", "--alpha", "1", "--r", "nan", "--paths", "10"],
    ["check", "harnack", "--kind", "stable", "--alpha", "1", "--r", "inf", "--paths", "10"],
    ["check", "bhp", "--kind", "stable", "--alpha", "1", "--r", "inf", "--paths", "10"],
    *[["simulate", "exit", "--kind", "stable", "--alpha", "1", "--paths", "10", flag, value]
      for flag, value in (("--radius", "0"), ("--radius", "nan"), ("--radius", "inf"),
                          ("--step", "nan"), ("--horizon", "nan"), ("--x0", "nan"),
                          ("--x0", "abc"))],
    ["phi", "--kind", "stable", "--alpha", "1", "--lambda", "inf"],
    ["density", "--kind", "stable", "--alpha", "1", "--t", "inf"],
    ["ladder", "chi", "--kind", "stable", "--alpha", "1", "--lambda", "inf"],
    ["ladder", "v", "--kind", "stable", "--alpha", "1", "--t", "inf"],
    ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--r", "inf"],
    ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--rmax", "inf"],
    ["check", "doubling", "--kind", "stable", "--alpha", "1", "--K", "inf"],
    *[["ladder", "halfline", "--kind", "stable", "--alpha", "1", "--x", x, "--y", y]
      for x, y in (("nan", "1"), ("inf", "1"), ("1", "inf"))],
    ["check", "bhp", "--kind", "stable", "--alpha", "1", "--r", "-1", "--paths", "10"],
    *[["simulate", "exit", "--kind", "stable", "--alpha", "1", "--paths", "10", "--seed", seed]
      for seed in ("-1", str(2**64))],
    # t^2 of v's rule, lam^2 of the chi rule or r^2 of a kernel leaves the float range
    *[["ladder", "v", "--kind", "sum", "--alpha", "1", "--t", t] for t in ("1e-300", "1e200")],
    ["ladder", "chi", "--kind", "sum", "--alpha", "1", "--lambda", "1e200"],
    *[["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--r", r]
      for r in ("1e-200", "1e160")],
    ["check", "doubling", "--kind", "stable", "--alpha", "1", "--dim", "1", "--K", "1e160"],
    # a relativistic mass that is not finite, or whose branch point m^(2/alpha) leaves the normal float range
    *[["phi", "--kind", "relativistic", "--alpha", "1", "--m", m, "--lmin", "1", "--lmax", "2", "--points", "2"]
      for m in ("nan", "inf", "1e300")],
    ["density", "--kind", "relativistic", "--alpha", "1", "--m", "1e-200", "--t", "1"],
    # a point together with either bound of its range
    *[[*cmd, "--kind", "stable", "--alpha", "1", point, "1", bound, "2"]
      for cmd, point, bounds in ((["phi"], "--lambda", ("--lmin", "--lmax")),
                                 (["density"], "--t", ("--tmin", "--tmax")),
                                 (["ladder", "chi"], "--lambda", ("--lmin", "--lmax")),
                                 (["ladder", "v"], "--t", ("--tmin", "--tmax")),
                                 (["kernel", "--dim", "3"], "--r", ("--rmin", "--rmax")),
                                 (["ladder", "halfline", "--x", "1"], "--y", ("--ymin", "--ymax")))
      for bound in bounds],
])
def test_out_of_range_input_is_usage_error(capsys, argv):
    # exit 2 with a one-line message: no traceback, and no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ")
    assert "Traceback" not in err and "Warning" not in err


def test_non_finite_inversion_is_numeric_failure(capsys):
    # mu of log_up at t = 1e-300 sums past the float range: refused with
    # exit 3 rather than written as inf, and no overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["density", "--kind", "log_up", "--alpha", "1", "--t", "1e-300"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err.startswith("numeric accuracy failure: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("x", ["1e-300", "1e-100"])
def test_halfline_out_of_reach_is_numeric_failure(capsys, x):
    # the rule takes v down to 1e-5 x: at 1e-100 past the real-axis rule's
    # reach, at 1e-300 past the float range of its t^2; either is a failure
    # of the rule (exit 3), stated in x, not a usage error of the x given
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["ladder", "halfline", "--kind", "sum", "--alpha", "1", "--x", x, "--y", "1"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == ("numeric accuracy failure: halfline Green reaches x and y in [1.1e-64, 6.79e+55] "
                            f"for sum(alpha=1, beta=0.5), not {x} and 1\n")


@pytest.mark.parametrize("r", ["1e-110", "1e-80", "1e-78"])
def test_kernel_past_float_range_is_usage_error(capsys, r):
    # J of the row, 1/(pi^2 r^4), would overflow to inf (about 1e311 at
    # 1e-78): refused with exit 2, nothing written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--r", r])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "float range" in captured.err
    assert "Traceback" not in captured.err


def test_kernel_within_float_range_is_written(capsys):
    # at 1e-60 both kernels fit a float (G about 5e118, J about 1e239): the
    # integrands are formed in logs, so the row is written with exit 0
    rc, out = _run(capsys, ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--r", "1e-60",
                            "--format", "json"])
    rec = json.loads(out)[0]
    assert rc == 0
    assert rec["G"] * 1e-120 == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-6)
    assert rec["J"] * 1e-240 == pytest.approx(1.0 / math.pi**2, rel=1e-6)


def test_radius_message_names_the_given_radius(capsys):
    # the checks scale r to 2r or 17r; the refusal reports r itself
    for which in ("bhp", "harnack"):
        rc = cli.main(["check", which, "--kind", "stable", "--alpha", "1", "--r", "-1", "--paths", "10"])
        assert rc == 2
        assert "got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "harnack", "--kind", "stable", "--alpha", "1", "--paths", "1", "--seed", "3"],
    ["check", "harnack", "--kind", "stable", "--alpha", "1", "--paths", "1", "--seed", "3",
     "--dim", "2"],
    ["check", "bhp", "--kind", "stable", "--alpha", "1", "--paths", "1", "--seed", "3"],
])
def test_probe_check_with_one_path_leaks_no_warning(capsys, argv):
    # one base path per start leaves one uncensored path in the base
    # estimate: its standard error is infinite, not a NaN with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    assert rc in (0, 1)
    assert capsys.readouterr().err == ""


def test_subnormal_levy_tail_leaks_no_warning(capsys):
    # the relativistic tail at m = 0.1 reaches subnormal knots that underflow
    # to 0 once divided by the rate; the quantile table must stop before them
    argv = ["simulate", "exit", "--kind", "relativistic", "--alpha", "1", "--m", "0.1",
            "--paths", "20", "--seed", "1", "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    assert rc == 0
    assert capsys.readouterr().err == ""
