import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from designmosaics import cli
from designmosaics.cli import main
from designmosaics.designs import IncidenceStructure
from designmosaics.families import build_m1, build_m4
from designmosaics.mosaics import certify, from_members
from designmosaics.serialize import load_mosaic, save_mosaic


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_m2_header(tmp_path, capsys):
    path = tmp_path / "m2.json"
    code, out, _ = run(capsys, "gen", "--family", "m2", "--t", "2", "--l", "1",
                       "--out", str(path))
    assert code == 0
    head = json.loads(path.read_text())
    assert (head["v"], head["b"], head["a"]) == (6, 15, 3)
    assert head["member_kind"] == "bibd"
    assert "content_hash" in head


def test_gen_members_and_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "m1.json"
    code, _, _ = run(capsys, "gen", "--family", "m1", "--t", "2", "--q", "2",
                     "--members", "--out", str(path))
    assert code == 0
    M = load_mosaic(path)
    assert (M.v, M.b, M.a) == (4, 6, 2)
    code, out, _ = run(capsys, "verify", "--mosaic", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_detects_tampering(tmp_path, capsys):
    path = tmp_path / "m1.json"
    run(capsys, "gen", "--family", "m1", "--t", "2", "--q", "2", "--members",
        "--out", str(path))
    colors = tmp_path / "m1_colors.csv"
    rows = colors.read_text().splitlines()
    rows[0] = ",".join("2" for _ in rows[0].split(","))      # a = 2: no such color
    colors.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "verify", "--mosaic", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["witness"] == [0, 0, 2]


def _edit_colors(tmp_path, edit):
    """Apply ``edit`` to F as m1_colors.csv holds it, in place."""
    path = tmp_path / "m1_colors.csv"
    F = np.loadtxt(path, delimiter=",", dtype=np.int32, ndmin=2)
    edit(F)
    np.savetxt(path, F, delimiter=",", fmt="%d")


def _color_out_of_range(F):
    F[0, 1] = 2             # a = 2: no such color


def _empty_member_1(F):
    F[F == 1] = 0           # member 0 takes member 1's pairs


@pytest.mark.parametrize("tamper,reason,witness", [
    (_color_out_of_range, "color out of range", [0, 1, 2]),
    (_empty_member_1, "empty member", [1]),
], ids=["uncovered_pair", "empty_member"])
def test_commands_reject_a_member_file_that_is_not_a_mosaic(tmp_path, capsys, tamper,
                                                             reason, witness):
    path = tmp_path / "m1.json"
    run(capsys, "gen", "--family", "m1", "--t", "2", "--q", "2", "--members",
        "--out", str(path))
    _edit_colors(tmp_path, tamper)
    mosaic = ("--mosaic", str(path))
    for argv in (("bounds", *mosaic, "--channel", "identity"),
                 ("bounds", *mosaic, "--scenario", "pa", "--source", "independent"),
                 ("hashprops", *mosaic),
                 ("simulate", *mosaic, "--channel", "identity", "--trials", "20"),
                 ("simulate", *mosaic, "--scenario", "pa", "--source", "independent",
                  "--trials", "20"),
                 ("exact", *mosaic, "--check", "prop41", "--trials", "2"),
                 ("exact", *mosaic, "--check", "prop42", "--trials", "2"),
                 ("rates", *mosaic)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        error = json.loads(err)["error"]
        assert str(path) in error and reason in error and str(witness) in error, argv
    code, out, _ = run(capsys, "verify", *mosaic)
    payload = json.loads(out)
    assert code == 1 and payload["reason"] == reason and payload["witness"] == witness


def _swap_point_0_colors(F):
    # point 0 takes color 1 on its first color-0 block and color 0 on its
    # first color-1 block: every pair keeps one color, but member 0 then
    # has blocks of sizes 3 and 1
    s0, s1 = np.flatnonzero(F[0] == 0)[0], np.flatnonzero(F[0] == 1)[0]
    F[0, [s0, s1]] = 1, 0


def test_commands_reject_a_member_file_whose_members_are_not_designs(tmp_path, capsys):
    path = tmp_path / "m1.json"
    run(capsys, "gen", "--family", "m1", "--t", "2", "--q", "2", "--members",
        "--out", str(path))
    _edit_colors(tmp_path, _swap_point_0_colors)
    mosaic = ("--mosaic", str(path))
    witness = ["column", 1, 3, 1]
    for argv in (("bounds", *mosaic, "--channel", "identity"),
                 ("bounds", *mosaic, "--scenario", "pa", "--source", "independent"),
                 ("hashprops", *mosaic),
                 ("simulate", *mosaic, "--channel", "identity", "--trials", "20"),
                 ("simulate", *mosaic, "--scenario", "pa", "--source", "independent",
                  "--trials", "20"),
                 ("exact", *mosaic, "--check", "prop41", "--trials", "2"),
                 ("exact", *mosaic, "--check", "prop42", "--trials", "2"),
                 ("rates", *mosaic)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        error = json.loads(err)["error"]
        assert (str(path) in error and "members check" in error and "member 0" in error
                and "nonconstant block size" in error and str(witness) in error), argv
    # verify reports the failure itself, with the member check's witness
    code, out, _ = run(capsys, "verify", *mosaic)
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False and "stage" not in payload
    assert payload["member_check"] == {"ok": False, "member": 0,
                                       "reason": "nonconstant block size", "witness": witness}


def test_only_member_files_are_certified_outside_verify(tmp_path, capsys, monkeypatch):
    # a header without member files is rebuilt by build_family, as --family is
    certified = []
    monkeypatch.setattr(cli, "certify", lambda M: certified.append(M))
    for members in ((), ("--members",)):
        path = tmp_path / str(len(members)) / "m2.json"
        path.parent.mkdir()
        run(capsys, "gen", "--family", "m2", "--t", "2", "--l", "1", *members, "--out", str(path))
        assert run(capsys, "hashprops", "--mosaic", str(path))[0] == 0
    # the member file's mosaic, held by F alone; the rebuilt m2 has its form
    assert len(certified) == 1 and certified[0]._form is None


@pytest.mark.parametrize("argv,flag,content", [
    (("bounds", "--channel", "symmetric:abc"), "--channel", None),
    (("bounds", "--channel", "{file}"), "--channel", "0.5,0.5\n0.5,0.5\n"),
    (("bounds", "--channel", "{file}"), "--channel", "a,b\n"),
    (("bounds", "--channel", "{file}"), "--channel", "nan,1\n"),
    (("exact", "--check", "prop41", "--channel", "{file}"), "--channel", "1\n1\n"),
    (("bounds", "--scenario", "pa", "--source", "{file}"), "--source", "0.5\n0.5\n0.5\n0.5\n"),
    (("bounds", "--scenario", "pa", "--source", "{file}"), "--source", "0.5,0.5\n"),
    (("hashprops", "--mosaic", "{file}"), "--mosaic", "{} {}"),
], ids=["unparsable_crossover", "channel_size", "channel_text", "channel_nan",
        "exact_channel_size", "source_sum", "source_size", "mosaic_not_json"])
def test_bad_inputs_name_their_flag_and_file(tmp_path, capsys, argv, flag, content):
    name = str(tmp_path / "input")
    if content is not None:
        Path(name).write_text(content)
    argv = [arg.replace("{file}", name) for arg in argv]
    family = () if flag == "--mosaic" else ("--family", "m1", "--t", "2", "--q", "2")
    code, out, err = run(capsys, argv[0], *family, *argv[1:])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error.startswith(f"{flag} {argv[argv.index(flag) + 1]}: "), error


@pytest.mark.parametrize("trials", [1, 5])
def test_simulate_runs_fewer_than_ten_trials(capsys, trials):
    code, out, _ = run(capsys, "simulate", "--family", "m2", "--t", "3", "--l", "2",
                       "--channel", "identity", "--trials", str(trials))
    assert code == 0 and json.loads(out)["trials"] == trials


def test_a_gdd_file_without_point_classes_is_a_validation_error(tmp_path, capsys):
    from designmosaics.serialize import _header_hash
    path = tmp_path / "m4.json"
    save_mosaic(build_m4(2, 3), path, members=True)
    head = json.loads(path.read_text())
    head["member_params"]["partition"] = head["point_classes"] = None
    head["content_hash"] = _header_hash(head)
    path.write_text(json.dumps(head))
    for command in ("hashprops", "verify"):
        code, out, err = run(capsys, command, "--mosaic", str(path))
        assert code == 2 and out == "" and "partition" in json.loads(err)["error"], command


def test_verify_family_build(capsys):
    code, out, _ = run(capsys, "verify", "--family", "m4", "--k", "3", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["functional_form"] == "consistent"


@pytest.mark.parametrize("argv, flag", [
    (("rates", "--family", "m4", "--k", "3", "--q", "4", "--t", "9", "--l", "2"), "--t"),
    (("verify", "--family", "m1", "--t", "2", "--q", "2", "--u", "3"), "--u"),
    (("hashprops", "--family", "m2", "--t", "3", "--l", "2", "--k", "4"), "--k"),
])
def test_family_flags_the_family_does_not_take_are_rejected(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith(f"{flag} is not a parameter of family {argv[2]}")


@pytest.mark.parametrize("argv, flag", [
    (("bounds", "--scenario", "pa", "--source", "random", "--pa", "point:1"), "--pa"),
    (("bounds", "--channel", "random", "--source", "{missing}"), "--source"),
    (("simulate", "--scenario", "pa", "--source", "random", "--channel", "identity"), "--channel"),
    (("exact", "--check", "prop42", "--channel", "{missing}"), "--channel"),
], ids=["bounds_pa_with_pa", "bounds_wiretap_with_source", "simulate_pa_with_channel",
        "exact_prop42_with_channel"])
def test_law_flags_the_scenario_or_check_does_not_read_are_rejected(tmp_path, capsys, argv, flag):
    argv = [arg.replace("{missing}", str(tmp_path / "missing.csv")) for arg in argv]
    code, out, err = run(capsys, *argv, "--family", "m1", "--t", "2", "--q", "2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith(f"{flag} is not read by {argv[0]} --"), err


def test_rates_reports_nonoptimal_m1_t3(capsys):
    code, out, _ = run(capsys, "rates", "--family", "m1", "--t", "3", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal"] is False
    assert abs(payload["color_rate"] - 1 / 3) < 1e-12


def test_bounds_wiretap_dominates(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "m1", "--t", "2", "--q", "3",
                       "--scenario", "wiretap", "--channel", "identity")
    assert code == 0
    payload = json.loads(out)
    assert payload["dominates"] is True
    assert abs(payload["bounds"]["exp_mutual_information"] - 3.0) < 1e-9


def test_bounds_pa_with_point_pa_flag(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "m4", "--k", "2", "--q", "3",
                       "--scenario", "pa", "--source", "random", "--seed", "4")
    assert code == 0
    assert json.loads(out)["dominates"] is True


def test_exact_prop41_cli(capsys):
    code, out, _ = run(capsys, "exact", "--check", "prop41", "--family", "m1",
                       "--t", "2", "--q", "3", "--channel", "random",
                       "--trials", "100", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_discrepancy"] < 1e-9 and payload["ok"]


def test_exact_prop42_cli(capsys):
    code, out, _ = run(capsys, "exact", "--check", "prop42", "--family", "m3",
                       "--t", "2", "--l", "1", "--u", "2", "--trials", "50", "--seed", "1")
    assert code == 0
    assert json.loads(out)["max_discrepancy"] < 1e-9


def test_hashprops_cli(capsys):
    code, out, _ = run(capsys, "hashprops", "--family", "m1", "--t", "2", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum_min"] == payload["spectrum_max"] == 2
    assert payload["universal"] and payload["optimally_universal"]


def test_simulate_pa_cli(capsys):
    code, out, _ = run(capsys, "simulate", "--scenario", "pa", "--family", "m4",
                       "--k", "2", "--q", "3", "--source", "independent",
                       "--trials", "4000", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] == 1.0 and payload["passed"]


def test_simulate_wiretap_cli(capsys):
    code, out, _ = run(capsys, "simulate", "--scenario", "wiretap", "--family", "m1",
                       "--t", "2", "--q", "2", "--channel", "symmetric:0.2",
                       "--trials", "4000", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["decode_errors"] == 0


def test_validation_failures_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--family", "m1", "--t", "2")  # missing q
    assert code == 2
    assert "error" in json.loads(err)
    code, _, err = run(capsys, "verify", "--family", "m4", "--k", "9", "--q", "3")
    assert code == 2
    m1 = ("--family", "m1", "--t", "2", "--q", "2")
    for argv in (("bounds", *m1, "--channel", "identity", "--pa", "point:99"),
                 ("bounds", *m1, "--channel", "identity", "--pa", "point:-1"),
                 ("simulate", *m1, "--channel", "identity", "--pa", "point:2")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "out of range" in json.loads(err)["error"]
    for argv in (("bounds", *m1, "--channel", "identity", "--pa", "nan,nan"),
                 ("bounds", *m1, "--channel", "identity", "--pa", "point:abc")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "--pa" in json.loads(err)["error"]
    prop41 = ("exact", *m1, "--check", "prop41")
    # no command takes a tolerance: argparse rejects --tol with any value
    for argv in (prop41 + ("--tol", "nan"), prop41 + ("--tol", "-1"), prop41 + ("--tol", "inf"),
                 ("bounds", *m1, "--channel", "identity", "--tol", "nan"),
                 ("bounds", *m1, "--channel", "identity", "--tol", "-1"),
                 ("bounds", *m1, "--channel", "identity", "--tol", "inf")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2 and "--tol" in capsys.readouterr().err, argv
    for argv, flag in ((prop41 + ("--trials", "0"), "--trials"),
                       (prop41 + ("--trials", "-3"), "--trials"),
                       (("simulate", *m1, "--channel", "identity", "--significance", "-1"),
                        "--significance"),
                       (("simulate", *m1, "--channel", "identity", "--significance", "nan"),
                        "--significance"),
                       (("simulate", *m1, "--channel", "identity", "--significance", "2"),
                        "--significance")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and flag in json.loads(err)["error"], argv
    missing = str(tmp_path / "absent.csv")
    for argv in (("bounds", *m1, "--channel", missing),
                 ("bounds", *m1, "--scenario", "pa", "--source", missing)):
        code, _, err = run(capsys, *argv)
        assert code == 2 and missing in json.loads(err)["error"]
    code, _, err = run(capsys, "bounds", *m1, "--channel", "random", "--seed", "-1")
    assert code == 2 and "--seed" in json.loads(err)["error"] and "-1" in json.loads(err)["error"]
    unwritable = str(tmp_path / "absent" / "x.json")
    for argv in (("bounds", *m1, "--channel", "identity", "--out", unwritable),
                 ("gen", *m1, "--out", unwritable),
                 ("gen", *m1, "--members", "--out", unwritable)):
        code, _, err = run(capsys, *argv)
        error = json.loads(err)["error"]
        assert code == 2 and error.startswith(f"--out {unwritable}: ") and error.count(unwritable) == 1, argv
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "m9"])     # argparse rejects the choice
    assert exc.value.code == 2


COMMANDS = ("gen", "verify", "rates", "bounds", "exact", "hashprops", "simulate")


@pytest.mark.parametrize("command, flag", [(command, "--tol") for command in COMMANDS]
                         + [(command, "--seed") for command in ("gen", "verify", "rates", "hashprops")])
def test_a_flag_the_command_does_not_take_exits_2_naming_it(capsys, command, flag):
    # every verdict uses security.SLACK, and only bounds, exact and simulate draw
    argv = [command, "--family", "m1", "--t", "2", "--q", "2", flag, "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--check", "prop41"] if command == "exact" else []))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_every_command_reads_every_flag_it_takes(tmp_path, capsys, monkeypatch):
    """Each attribute that a subcommand's parser sets is read by the command,
    in one of its scenarios or checks.  Only the reads of ``args.fn`` count:
    the checks before it read what they validate, which is no use of it.
    ``fn`` and ``command`` are argparse's dispatch."""
    import argparse
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(argparse, "Namespace", Recorder)
    m1 = ["--family", "m1", "--t", "2", "--q", "2"]
    runs = {
        "gen": [["--out", str(tmp_path / "m1.json")]],
        "verify": [[]], "rates": [[]], "hashprops": [[]],
        "bounds": [["--channel", "identity"], ["--scenario", "pa", "--source", "random"]],
        "exact": [["--check", "prop41"], ["--check", "prop42"]],
        "simulate": [["--channel", "identity", "--trials", "50"],
                     ["--scenario", "pa", "--source", "random", "--trials", "50"]],
    }
    for command, variants in runs.items():
        read, taken = set(), set()
        for extra in variants:
            args = cli._parser().parse_args([command, *m1, *extra])
            assert type(args) is Recorder
            cli._check_numeric_flags(args)
            cli._check_unread_flags(args)
            reads.clear()
            assert args.fn(args) in (0, 1), (command, extra)
            read |= reads
            taken |= set(vars(args)) - {"fn", "command"}
        capsys.readouterr()
        assert taken - read == set(), command


@pytest.mark.parametrize("family", [("m1", "--t", "12", "--q", "4"), ("m4", "--k", "3", "--q", "65536")],
                         ids=["m1_12_4", "m4_3_65536"])
def test_rates_on_a_large_mosaic_builds_no_table(family):
    # rates reads the parameters only; M1's slopes and the (q, q) field
    # tables of M1 and M4 wait for the first call of f, g or the form
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    proc = subprocess.run([sys.executable, "-m", "designmosaics.cli", "rates", "--family", *family],
                          env=env, capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["verdict"] in ("optimal", "near-optimal")


def test_output_contains_content_hash(capsys):
    code, out, _ = run(capsys, "rates", "--family", "m4", "--k", "2", "--q", "3")
    assert code == 0
    assert "inputs_hash" in json.loads(out)


def test_save_load_round_trip_without_members(tmp_path):
    path = tmp_path / "h.json"
    for M in (build_m1(2, 3), build_m4(2, 5, slopes=(1, 3))):
        save_mosaic(M, path)
        M2 = load_mosaic(path)
        assert M2.meta == M.meta
        assert np.array_equal(M.color_matrix(), M2.color_matrix())
    head = json.loads(path.read_text())
    head["v"] = 999
    path.write_text(json.dumps(head))
    with pytest.raises(ValueError, match="content_hash"):
        load_mosaic(path)


def test_a_one_seed_mosaic_survives_save_and_load_with_members(tmp_path):
    # b = 1: every member file holds one column
    F = np.array([[0], [1], [0], [1]], dtype=np.int32)
    M = from_members([IncidenceStructure(F == alpha) for alpha in range(2)])
    assert certify(M) is None
    path = tmp_path / "one.json"
    save_mosaic(M, path, members=True)
    loaded = load_mosaic(path)
    assert np.array_equal(loaded.color_matrix(), F) and certify(loaded) is None


@pytest.mark.parametrize("argv, content", [
    (("--channel", "{file}"), "1\n1\n1\n1\n"),
    (("--scenario", "pa", "--source", "{file}"), "0.25\n0.25\n0.25\n0.25\n"),
], ids=["channel", "source"])
def test_bounds_reads_a_one_column_law(tmp_path, capsys, argv, content):
    # nz = 1: Z says nothing, and the file's four rows are the mosaic's four points
    path = tmp_path / "law.csv"
    path.write_text(content)
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    code, out, err = run(capsys, "bounds", "--family", "m1", "--t", "2", "--q", "2", *argv)
    assert (code, err) == (0, "") and json.loads(out)["dominates"] is True


def test_a_channel_file_named_like_symmetric_is_read_as_a_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    W = np.random.default_rng(3).dirichlet(np.ones(4), size=4)
    for name in ("symmetric_w.csv", "w.csv"):
        np.savetxt(name, W, delimiter=",")
    family = ("--family", "m1", "--t", "2", "--q", "2")
    outs = [run(capsys, "bounds", *family, "--channel", name)
            for name in ("symmetric_w.csv", "w.csv", "symmetric")]
    assert outs[0] == outs[1] and outs[0][0] == 0 and outs[0][1] != outs[2][1]
    code, out, err = run(capsys, "bounds", *family, "--channel", "symmetrical")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith("--channel symmetrical: ")


def test_reused_parser_gives_the_output_of_a_fresh_one(capsys):
    """main builds its parser once per process; calls made in sequence with
    it print what each call prints first in a fresh process, whose parser is
    new.  Each pair differs in a default the earlier call overrides."""
    from designmosaics import cli
    m1 = ["--family", "m1", "--t", "2", "--q", "2"]
    calls = [
        ["bounds", *m1, "--channel", "identity", "--pa", "point:1"],
        ["bounds", *m1, "--channel", "identity"],
        ["exact", *m1, "--check", "prop41"],
        ["simulate", *m1, "--channel", "symmetric:0.2"],
        ["verify", *m1, "--scenario", "pa"],      # argparse rejects the flag
        ["verify", *m1],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    cli._parser.cache_clear()
    reused = [call(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 0, 0, 2, 0]
    assert "unrecognized arguments: --scenario pa" in reused[4][2]
    outs = [json.loads(out) for _, out, _ in reused if out]
    assert outs[2]["trials"] == 100 and outs[3]["trials"] == 10000
    # a point P_A on the identity channel leaks nothing, the uniform one a bit
    assert outs[0]["exact"]["mutual_information"] == 0.0
    assert outs[1]["exact"]["mutual_information"] == 1.0


def test_cli_calls_leave_little_cyclic_garbage(capsys):
    # the parser's tree is cyclic; rebuilt per call it left 13,620 objects
    # for the collector after 20 calls
    import gc
    argv = ["verify", "--family", "m2", "--t", "3", "--l", "2"]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            assert main(argv) == 0
        unreachable = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert unreachable <= 2000


def test_cli_calls_leave_no_field_to_the_cyclic_collector(capsys):
    # a FieldArrays that referred back to its GF made every field a cycle:
    # 20 calls left 20 GF and 20 FieldArrays behind
    import gc
    from collections import Counter
    argv = ["verify", "--family", "m2", "--t", "3", "--l", "2"]
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(20):
            assert main(argv) == 0
        gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert [kinds[name] for name in ("GF", "FieldArrays")] == [0, 0]


def test_load_rejects_a_member_description_its_params_do_not_imply(tmp_path, capsys):
    from designmosaics.serialize import _header_hash
    path = tmp_path / "m4.json"
    save_mosaic(build_m4(3, 4), path, members=True)
    head = json.loads(path.read_text())
    assert load_mosaic(path).point_classes == tuple(map(tuple, head["point_classes"]))
    for key, value in [("member_kind", "bibd"), ("member_kind", None),
                       ("point_classes", None), ("point_classes", [[0, 1], [2, 3]])]:
        edited = {**head, key: value}
        edited["content_hash"] = _header_hash(edited)
        path.write_text(json.dumps(edited))
        with pytest.raises(ValueError, match=f"header {key} disagrees"):
            load_mosaic(path)
        code, _, err = run(capsys, "verify", "--mosaic", str(path))
        assert code == 2 and key in json.loads(err)["error"]


@pytest.mark.parametrize("check,flag,reader,row", [
    ("prop41", "--channel", "channel_from_csv", "0.5,0.5\n"),
    ("prop42", "--source", "source_from_csv", "0.125,0.125\n"),
])
def test_exact_reads_a_csv_law_once(tmp_path, capsys, monkeypatch, check, flag, reader, row):
    # a fixed channel or source is parsed before the trial loop, not per trial
    path = tmp_path / "law.csv"
    path.write_text(row * 4)
    reads = []
    original = getattr(cli, reader)
    monkeypatch.setattr(cli, reader, lambda p: reads.append(p) or original(p))
    code, out, _ = run(capsys, "exact", "--check", check, "--family", "m1", "--t", "2",
                       "--q", "2", flag, str(path))
    assert code == 0 and json.loads(out)["trials"] == 100
    assert reads == [str(path)]


def test_a_mosaic_error_names_the_path_once(tmp_path, capsys):
    path = tmp_path / "h.json"
    save_mosaic(build_m1(2, 2), path)
    head = json.loads(path.read_text())
    for key, value, message in [("v", 5, "header does not match its content_hash"),
                                ("format", "other", "not a mosaic header")]:
        path.write_text(json.dumps({**head, key: value}))
        code, out, err = run(capsys, "hashprops", "--mosaic", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == f"--mosaic {path}: {message}"


def _rehash(head):
    from designmosaics.serialize import _header_hash
    return {**head, "content_hash": _header_hash(head)}


@pytest.mark.parametrize("edit, named", [
    (lambda head: _rehash({k: v for k, v in head.items() if k != "v"}), "header v"),
    (lambda head: [head], "not a mosaic header"),
    (lambda head: _rehash({**head, "params": {"t": "2", "q": 2}}), "header params t is '2'"),
    (lambda head: _rehash({**head, "member_params": {"type": "bibd"}}), "bibd certificate v"),
    (lambda head: _rehash({**head, "params": {"t": 2, "q": 2, "zz": 1}}), "'zz': 1"),
    (lambda head: _rehash({**head, "family": ["m1"]}), "header family is ['m1'], not a str"),
    (lambda head: _rehash({**head, "params": [2, 2]}), "header params is [2, 2], not a dict"),
    (lambda head: _rehash({**head, "member_params": "bibd"}), "header member_params is 'bibd'"),
    (lambda head: _rehash({**head, "colors": 5}), "header colors is 5, not a str"),
], ids=["no_v", "json_list", "string_param", "partial_member_params", "unknown_param",
        "family_list", "params_list", "member_params_string", "colors_int"])
def test_a_malformed_header_is_a_validation_error_naming_its_key(tmp_path, capsys, edit, named):
    path = tmp_path / "h.json"
    save_mosaic(build_m1(2, 2), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, out, err = run(capsys, "rates", "--mosaic", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error.startswith(f"--mosaic {path}: ") and named in error, error


def test_a_header_naming_dense_member_files_is_rejected(tmp_path, capsys):
    path = tmp_path / "h.json"
    save_mosaic(build_m1(2, 2), path)
    head = _rehash({**json.loads(path.read_text()), "members": ["h_member_0.csv", "h_member_1.csv"]})
    path.write_text(json.dumps(head))
    code, out, err = run(capsys, "rates", "--mosaic", str(path))
    assert code == 2 and out == "" and '"members"' in json.loads(err)["error"]


@pytest.mark.parametrize("edit, named", [
    (lambda rows: rows[:3], "has shape (3, 6), not the header's (v, b) = (4, 6)"),
    (lambda rows: ["0.5" + rows[0][1:]] + rows[1:], "0.5"),
    (lambda rows: [rows[0] + ",1"] + rows[1:], ""),
], ids=["three_rows", "non_integer", "ragged"])
def test_a_malformed_colors_csv_is_named_in_the_error(tmp_path, capsys, edit, named):
    path = tmp_path / "m1.json"
    save_mosaic(build_m1(2, 2), path, members=True)
    colors = tmp_path / "m1_colors.csv"
    colors.write_text("\n".join(edit(colors.read_text().splitlines())) + "\n")
    code, out, err = run(capsys, "verify", "--mosaic", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error.startswith(f"--mosaic {path}: {colors}") and named in error, error


def test_every_command_runs_on_the_large_rung(tmp_path, capsys):
    # m2(5, 3): v = 232, b = 957, a = 29, the benchmark's largest CLI rung
    family = ("--family", "m2", "--t", "5", "--l", "3")
    code, _, _ = run(capsys, "gen", *family, "--out", str(tmp_path / "m2.json"))
    assert code == 0
    outputs = {}
    # the symmetric channel and the independent source give every mosaic of
    # the same (v, b, k) the same metrics; the random laws read its structure
    bounds = [("bounds", "--scenario", "wiretap", "--channel", "symmetric:0.2"),
              ("bounds", "--scenario", "wiretap", "--channel", "random"),
              ("bounds", "--scenario", "pa", "--source", "independent"),
              ("bounds", "--scenario", "pa", "--source", "random")]
    for argv in [("verify",), ("rates",), ("hashprops",), *bounds,
                 ("simulate", "--scenario", "wiretap", "--channel", "symmetric:0.2",
                  "--trials", "2000"),
                 ("simulate", "--scenario", "pa", "--source", "independent",
                  "--trials", "2000"),
                 ("exact", "--check", "prop41", "--trials", "2"),
                 ("exact", "--check", "prop42", "--trials", "2")]:
        code, out, _ = run(capsys, argv[0], *family, *argv[1:])
        assert code == 0, argv
        outputs[argv[:3]] = outputs[argv] = json.loads(out)
    assert outputs[("verify",)]["ok"]
    assert all(outputs[argv]["dominates"] for argv in bounds)
    assert outputs[("simulate", "--scenario", "wiretap")]["decode_errors"] == 0
    assert outputs[("simulate", "--scenario", "pa")]["decode_errors"] == 0
    # (232, 8, 1) BIBD members: the constant spectrum a lambda = 29 meets the
    # Stinson floor, and epsilon is 8/957
    hp = outputs[("hashprops",)]
    assert hp["spectrum_min"] == hp["spectrum_max"] == 29
    assert hp["universal"] is True and hp["optimally_universal"] is True
    assert hp["epsilon"] == 8 / 957


@pytest.mark.parametrize("argv", [
    ["hashprops", "--mosaic", "{path}"],
    ["bounds", "--scenario", "wiretap", "--channel", "{path}", "--family", "m1", "--t", "2", "--q", "2"],
    ["bounds", "--scenario", "pa", "--source", "{path}", "--family", "m1", "--t", "2", "--q", "2"],
], ids=["mosaic", "channel", "source"])
def test_a_file_that_cannot_be_opened_is_named_once(tmp_path, capsys, argv):
    path = str(tmp_path / "nothere.file")
    code, out, err = run(capsys, *[a.format(path=path) for a in argv])
    error = json.loads(err)["error"]
    assert code == 2 and out == "" and error.count(path) == 1, error
    assert error == f"{argv[argv.index('{path}') - 1]} {path}: No such file or directory"
