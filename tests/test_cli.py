import hashlib
import importlib
import pkgutil
import runpy
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Mapping
from pathlib import Path

import pytest

import gripstream
from gripstream import stats
from gripstream.cli import main
from gripstream.ingest import CSV_HEADER, load_session, save_session
from gripstream.profiling import profile_export, window_profile
from gripstream.protocol import GloveFrame, Hand
from gripstream.recording import Expertise, IoFailure, SessionRecording


def test_every_gripstream_error_is_a_value_or_os_error():
    """So main's one rule, UsageError exits 1 and ValueError or OSError exits 2, covers all."""
    modules = [importlib.import_module(f"gripstream.{m.name}")
               for m in pkgutil.iter_modules(gripstream.__path__)]
    errors = {cls for module in modules for cls in vars(module).values()
              if isinstance(cls, type) and issubclass(cls, BaseException)
              and cls.__module__.startswith("gripstream")}
    assert [cls for cls in errors if not issubclass(cls, (ValueError, OSError))] == []
    assert sorted(cls.__name__ for cls in errors) == [
        "BindFailure", "ConnectionLost", "ConnectionRefused", "FrameError", "IoFailure",
        "MalformedFile", "MisplacedFrame", "UnbalancedDesign", "UsageError"]


def test_every_gripstream_module_imports_only_the_standard_library():
    """The runtime is stdlib-only: importing every module in a fresh interpreter adds no other."""
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"  # what site set up, before any gripstream import
        "import gripstream\n"
        "for m in pkgutil.iter_modules(gripstream.__path__):\n"
        "    importlib.import_module('gripstream.' + m.name)\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'gripstream'}))\n"
    )
    src = str(Path(gripstream.__path__[0]).parent)
    # -I ignores PYTHONDONTWRITEBYTECODE; -B keeps the child from writing bytecode into src/
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", script, src],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def free_port() -> int:
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def constant_recording(value=100, count=8, user_id="c"):
    frames = [GloveFrame(Hand.LEFT, i, i * 20, (value,) * 12) for i in range(count)]
    return SessionRecording(user_id, Expertise.NOVICE, 1, Hand.LEFT, frames)


def test_simulate_writes_expert_session(tmp_path, capsys):
    out = tmp_path / "s.bin"
    code = main(["simulate", "--user", "expert", "--hand", "dominant",
                 "--duration", "8.88", "--seed", "42", "--out", str(out)])
    assert code == 0
    recording = load_session(out)
    assert len(recording.frames) == 444
    assert recording.expertise == Expertise.EXPERT
    assert recording.hand == Hand.LEFT  # expert preset is left-handed
    assert "444 frames" in capsys.readouterr().err


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    args = ["simulate", "--user", "novice", "--seed", "9", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_env_seed_fallback(tmp_path, monkeypatch):
    a, b, c = (tmp_path / n for n in ("a.bin", "b.bin", "c.bin"))
    monkeypatch.setenv("GRIPSTREAM_SEED", "77")
    assert main(["simulate", "--user", "novice", "--duration", "1", "--out", str(a)]) == 0
    assert main(["simulate", "--user", "novice", "--duration", "1", "--out", str(b)]) == 0
    monkeypatch.setenv("GRIPSTREAM_SEED", "78")
    assert main(["simulate", "--user", "novice", "--duration", "1", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_config_file(tmp_path):
    conf = tmp_path / "sess.conf"
    conf.write_text("expertise = trained\nduration = 2.0\nseed = 5\n", encoding="utf-8")
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    recording = load_session(out)
    assert recording.expertise == Expertise.TRAINED
    assert len(recording.frames) == 100


def test_simulate_requires_user_or_config(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "x.bin")]) == 1
    assert "--user or --config" in capsys.readouterr().err


GOLDEN_SHA256 = [
    (["--user", "expert", "--hand", "dominant", "--duration", "8.88", "--seed", "42"], "s.bin",
     "47ebdb2dbce90e6a1a4f9c79be4938b5a505461883ce37f5194b4c57fe6e28af"),
    (["--user", "expert", "--hand", "dominant", "--duration", "8.88", "--seed", "42"], "s.csv",
     "b988c8b7212bef7841a6047e794d10b19883b3682d2a8e0e543ee2dab4576bd4"),
    (["--user", "novice", "--session", "10", "--seed", "3"], "s.bin",
     "83c88eb24f9f3d5b7f19937fa50d05b918037d55780ea6f4b6a48a9f342d4546"),
]


@pytest.mark.parametrize("flags, name, digest", GOLDEN_SHA256)
def test_simulate_same_seed_same_bytes(tmp_path, flags, name, digest):
    out = tmp_path / name
    assert main(["simulate", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.fixture
def novice_conf(tmp_path):
    conf = tmp_path / "novice.conf"
    conf.write_text("expertise = novice\nseed = 3\n", encoding="utf-8")
    return str(conf)


def test_simulate_session_flag_over_config_matches_flags_only(tmp_path, novice_conf):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert main(["simulate", "--config", novice_conf, "--session", "10", "--out", str(a)]) == 0
    assert main(["simulate", "--user", "novice", "--session", "10", "--seed", "3",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_hand_flag_over_config_takes_that_hands_task_time(tmp_path, novice_conf):
    out = tmp_path / "h.bin"
    assert main(["simulate", "--config", novice_conf, "--hand", "nondominant",
                 "--out", str(out)]) == 0
    recording = load_session(out)
    assert recording.hand == Hand.LEFT  # novice preset is right-handed
    assert len(recording.frames) == 649  # 12.99 s


def test_simulate_user_flag_over_config(tmp_path, novice_conf):
    out = tmp_path / "e.bin"
    assert main(["simulate", "--config", novice_conf, "--user", "expert", "--out", str(out)]) == 0
    recording = load_session(out)
    assert recording.expertise == Expertise.EXPERT
    assert len(recording.frames) == 444


def test_simulate_seed_precedence_flag_config_env(tmp_path, monkeypatch, novice_conf):
    unseeded = tmp_path / "unseeded.conf"
    unseeded.write_text("expertise = novice\n", encoding="utf-8")
    paths = {name: tmp_path / f"{name}.bin" for name in ("config", "env", "env9", "flag", "over")}
    assert main(["simulate", "--config", novice_conf, "--out", str(paths["config"])]) == 0
    monkeypatch.setenv("GRIPSTREAM_SEED", "3")
    assert main(["simulate", "--config", str(unseeded), "--out", str(paths["env"])]) == 0
    monkeypatch.setenv("GRIPSTREAM_SEED", "9")
    assert main(["simulate", "--config", str(unseeded), "--out", str(paths["env9"])]) == 0
    assert main(["simulate", "--config", novice_conf, "--out", str(paths["over"])]) == 0
    assert main(["simulate", "--config", str(unseeded), "--seed", "3",
                 "--out", str(paths["flag"])]) == 0
    data = {name: path.read_bytes() for name, path in paths.items()}
    assert data["env"] == data["config"] == data["over"] == data["flag"]
    assert data["env9"] != data["env"]


def test_simulate_bad_value_names_its_key_and_file(tmp_path, capsys, novice_conf):
    conf = tmp_path / "bad.conf"
    conf.write_text("expertise = novice\nsession = abc\n", encoding="utf-8")
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "x.bin")]) == 2
    err = capsys.readouterr().err
    assert f"{conf}: session = abc" in err
    # a bad flag value is not blamed on the config file
    assert main(["simulate", "--config", novice_conf, "--session", "11",
                 "--out", str(tmp_path / "x.bin")]) == 2
    err = capsys.readouterr().err
    assert "session = 11" in err and novice_conf not in err


def test_simulate_rejects_nonpositive_duration(tmp_path, capsys):
    # 0.01 s holds no whole 20 ms frame, and a recording holds at least one
    for duration, out in (("0", tmp_path / "x.bin"), ("0.01", tmp_path / "e.csv")):
        assert main(["simulate", "--user", "novice", "--duration", duration,
                     "--out", str(out)]) == 2
        assert (f"duration = {float(duration)}: duration_s must be positive"
                in capsys.readouterr().err)
        assert not out.exists()


def test_analyze_profile_csv(tmp_path, capsys):
    src = tmp_path / "s.bin"
    main(["simulate", "--user", "expert", "--duration", "8.88", "--seed", "42",
          "--out", str(src)])
    out = tmp_path / "profile.csv"
    code = main(["analyze", "--in", str(src), "--sensor", "7", "--window-ms", "2000",
                 "--stat", "mean", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "window_index,start_ms,value_mv,sample_count"
    assert len(lines) == 5  # 444 frames -> 4 complete windows
    assert all(line.endswith(",100") for line in lines[1:])
    assert "task time 8.88 s" in capsys.readouterr().err
    # without --out the same profile goes to stdout, byte for byte
    assert main(["analyze", "--in", str(src), "--sensor", "7", "--window-ms", "2000",
                 "--stat", "mean"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_analyze_rejects_bad_window(tmp_path, capsys):
    src = tmp_path / "missing.bin"  # validation must fire before any I/O
    code = main(["analyze", "--in", str(src), "--window-ms", "1999"])
    assert code == 1
    assert "multiple of 20" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["analyze", "--in", "missing.bin"],
    ["compare", "--cell", "a:b=missing.bin"],
], ids=["analyze", "compare"])
def test_rejects_bad_sensor(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)  # validation must fire before missing.bin is read
    code = main(command + ["--sensor", "13"])
    assert code == 1
    assert "--sensor" in capsys.readouterr().err


def test_missing_input_is_data_error(tmp_path, capsys):
    code = main(["analyze", "--in", str(tmp_path / "missing.bin")])
    assert code == 2


def test_missing_config_is_data_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "missing.conf"),
                 "--out", str(tmp_path / "x.bin")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("gripstream: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["simulate", "--frobnicate"]) == 1


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.filterwarnings("ignore:'gripstream.cli' found in sys.modules:RuntimeWarning")
@pytest.mark.parametrize("args, code", [
    (["--help"], 0),
    (["simulate", "--frobnicate"], 1),
    (["analyze", "--in", "missing.bin"], 2),
], ids=["ok", "usage", "data"])
def test_python_m_exits_with_the_code_main_returns(tmp_path, monkeypatch, capsys, args, code):
    """``python -m gripstream.cli`` runs the module as ``__main__``, as runpy does here."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["gripstream", *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("gripstream.cli", run_name="__main__")
    assert exc.value.code == code


def test_compare_reconstruct(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["compare", "--reconstruct-paper", "--seed", "1", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "expertise=novice session=first" in captured.out
    assert "F(1, 2880)" in captured.out
    assert "p = " in captured.out
    assert "188.53" in captured.err  # discrepancy note
    assert "F = 101.41" in captured.err  # computed by stats.closed_form_interaction_f
    assert "pooled SEM of 1.27 mV" in captured.err  # what F = 188.53 would need
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "effect,ss,df,ms,f,p"
    assert len(rows) == 5
    inter = rows[3].split(",")
    assert inter[0] == "expertise x session"
    assert inter[2] == "1"
    assert float(inter[5]) < 0.001


def test_compare_identical_recordings_not_applicable(tmp_path, capsys):
    path = tmp_path / "const.bin"
    save_session(constant_recording(), path)
    cells = [f"{a}:{b}={path}" for a in ("n", "e") for b in ("first", "last")]
    code = main(["compare"] + [arg for c in cells for arg in ("--cell", c)])
    assert code == 0
    out = capsys.readouterr().out
    assert "n/a" in out


def test_compare_toy_design_zero_interaction(tmp_path, capsys):
    def cell_recording(values, user):
        frames = [GloveFrame(Hand.LEFT, i, i * 20, (v,) * 12) for i, v in enumerate(values)]
        return SessionRecording(user, Expertise.NOVICE, 1, Hand.LEFT, frames)

    paths = {}
    for name, values in (("A1:B1", [1, 2]), ("A1:B2", [3, 4]),
                         ("A2:B1", [5, 6]), ("A2:B2", [7, 8])):
        path = tmp_path / (name.replace(":", "_") + ".bin")
        save_session(cell_recording(values, name), path)
        paths[name] = path
    args = ["compare"]
    for name, path in paths.items():
        args += ["--cell", f"{name}={path}"]
    assert main(args) == 0
    out = capsys.readouterr().out
    interaction_line = next(line for line in out.splitlines() if line.startswith("A x B"))
    assert interaction_line.split()[-2] == "0"  # F column


def test_compare_pools_repeated_cells(tmp_path, capsys):
    def cell_recording(values, user):
        frames = [GloveFrame(Hand.LEFT, i, i * 20, (v,) * 12) for i, v in enumerate(values)]
        return SessionRecording(user, Expertise.NOVICE, 1, Hand.LEFT, frames)

    args = ["compare"]
    for cell, base in (("A1:B1", 10), ("A1:B2", 20), ("A2:B1", 30), ("A2:B2", 40)):
        for part, values in enumerate(([base, base + 1, base + 2], [base + 6, base + 7, base + 8])):
            path = tmp_path / f"{cell.replace(':', '_')}_{part}.bin"
            save_session(cell_recording(values, "u"), path)
            args += ["--cell", f"{cell}={path}"]
    assert main(args) == 0
    out = capsys.readouterr().out
    n = 6  # two files of three frames per cell
    cell_rows = [line.split() for line in out.splitlines() if line.startswith("A=")]
    assert len(cell_rows) == 4
    assert all(int(row[-1]) == n for row in cell_rows)
    assert [float(row[-3]) for row in cell_rows] == [14.0, 24.0, 34.0, 44.0]
    error_row = next(line for line in out.splitlines() if line.startswith("error"))
    assert int(error_row.split()[2]) == 4 * n - 4


def test_compare_unbalanced_design_surfaced(tmp_path, capsys):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    save_session(constant_recording(count=8), a)
    save_session(constant_recording(count=6), b)
    code = main(["compare",
                 "--cell", f"x:1={a}", "--cell", f"x:2={a}",
                 "--cell", f"y:1={a}", "--cell", f"y:2={b}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "n=8" in err and "n=6" in err


def test_compare_without_inputs(capsys):
    assert main(["compare"]) == 1


@pytest.mark.parametrize("args, message", [
    (["--reconstruct-paper", "--cell", "a:b=x.bin"],
     "--reconstruct-paper and --cell are mutually exclusive"),
    (["--cell", "a:b=x.bin", "--factor-names", "A"],
     "--factor-names must be NAME_A,NAME_B, got 'A'"),
    (["--cell", "a:b=x.bin", "--factor-names", "A,B,C"],
     "--factor-names must be NAME_A,NAME_B, got 'A,B,C'"),
    (["--cell", "a:b=x.bin", "--factor-names", "A,"],
     "--factor-names must be NAME_A,NAME_B, got 'A,'"),
    (["--cell", "x.bin"], "--cell must be LEVELA:LEVELB=PATH, got 'x.bin'"),
    (["--cell", "a=x.bin"], "--cell must be LEVELA:LEVELB=PATH, got 'a=x.bin'"),
])
def test_compare_usage_errors_exit_1_before_reading(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)  # x.bin does not exist: reading it would exit 2
    assert main(["compare", *args]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"gripstream: error: {message}\n")


@pytest.mark.parametrize("command", [
    ["compare", "--reconstruct-paper"],
    ["simulate", "--user", "novice", "--out", "s.bin"],
])
def test_non_integer_seed_variable_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GRIPSTREAM_SEED", "abc")
    assert main(command) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "gripstream: error: GRIPSTREAM_SEED must be an integer, got 'abc'\n")
    assert list(tmp_path.iterdir()) == []


def test_compare_summarizes_each_cell_in_the_anova_pass_only(tmp_path, monkeypatch, capsys):
    def refuse(values):
        raise AssertionError("compare summarized a cell outside the ANOVA")

    monkeypatch.setattr(stats, "mean_sem", refuse)
    args = ["compare"]
    for cell, value in (("a:x", 1), ("a:y", 2), ("b:x", 3), ("b:y", 5)):
        path = tmp_path / f"{value}.bin"
        save_session(constant_recording(value=value), path)
        args += ["--cell", f"{cell}={path}"]
    assert main(args) == 0
    assert main(["compare", "--reconstruct-paper", "--n-per-cell", "10"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["A=b", "B=y", "5.00", "0.000", "8"] in rows


def test_compare_hands_the_anova_its_cells(tmp_path, monkeypatch):
    """Both compare paths pass a (level_a, level_b) -> values table, not one triple per value."""
    handed = []
    anova = stats.two_way_anova

    def record(observations, factor_names):
        handed.append(observations)
        return anova(observations, factor_names)

    monkeypatch.setattr(stats, "two_way_anova", record)
    args = ["compare"]
    for cell, value, count in (("a:x", 1, 8), ("a:y", 2, 8), ("b:x", 3, 8),
                               ("b:y", 5, 4), ("b:y", 8, 4)):  # a repeated cell pools
        path = tmp_path / f"{value}.bin"
        save_session(constant_recording(value=value, count=count), path)
        args += ["--cell", f"{cell}={path}"]
    assert main(args) == 0
    assert main(["compare", "--reconstruct-paper", "--n-per-cell", "10"]) == 0
    assert len(handed) == 2 and all(isinstance(cells, Mapping) for cells in handed)
    assert {cell: list(values) for cell, values in handed[0].items()} == {
        ("a", "x"): [1] * 8, ("a", "y"): [2] * 8, ("b", "x"): [3] * 8, ("b", "y"): [5] * 4 + [8] * 4}


@pytest.mark.parametrize("write", [
    lambda path: save_session(constant_recording(), path, format="binary"),
    lambda path: save_session(constant_recording(), path, format="csv"),
    lambda path: profile_export(window_profile([(0, 1.0), (20, 2.0)], 20), path),
    lambda path: main(["compare", "--reconstruct-paper", "--n-per-cell", "2", "--out", str(path)]),
], ids=["binary", "csv", "profile", "compare"])
def test_every_writer_reports_a_missing_directory_alike(tmp_path, capsys, write):
    path = tmp_path / "missing" / "out"
    try:
        assert write(path) == 2  # compare: a data error
        message = capsys.readouterr().err.splitlines()[-1].removeprefix("gripstream: ")
    except IoFailure as exc:
        message = str(exc)
    assert message.startswith(f"cannot write {path}: [Errno 2] No such file or directory")


def test_export_round_trip(tmp_path):
    src = tmp_path / "s.bin"
    main(["simulate", "--user", "trained", "--duration", "1.5", "--seed", "3",
          "--out", str(src)])
    as_csv = tmp_path / "s.csv"
    back = tmp_path / "s2.bin"
    assert main(["export", "--in", str(src), "--out", str(as_csv)]) == 0
    assert main(["export", "--in", str(as_csv), "--out", str(back)]) == 0
    assert load_session(back) == load_session(src)
    assert src.read_bytes() == back.read_bytes()


def test_export_csv_syntax_error_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    save_session(constant_recording(), bad)
    bad.write_bytes(bad.read_bytes().replace(b"c,", b"c\r,", 1))
    assert main(["export", "--in", str(bad), "--out", str(tmp_path / "out.bin")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gripstream: ")
    assert "Traceback" not in err


def test_export_rejects_session_index_binary_cannot_hold(tmp_path, capsys):
    src, out = tmp_path / "neg.csv", tmp_path / "neg.bin"
    src.write_text(CSV_HEADER + "\nc,novice,-1,left,0,0" + ",100" * 12 + "\n", encoding="utf-8")
    assert main(["export", "--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gripstream: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("session_index", ["-3", "4294967296"])
def test_analyze_rejects_a_csv_session_index_binary_cannot_hold(tmp_path, capsys,
                                                                session_index):
    src = tmp_path / "big.csv"
    src.write_text(f"{CSV_HEADER}\nc,novice,{session_index},left,0,0" + ",100" * 12 + "\n",
                   encoding="utf-8")
    assert main(["analyze", "--in", str(src), "--sensor", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"gripstream: session_index must be an int in 0..4294967295, "
                   f"got {session_index} (line 2)\n")


def test_stream_record_loopback_matches_direct_path(tmp_path, capsys):
    src = tmp_path / "s.bin"
    main(["simulate", "--user", "expert", "--duration", "2.0", "--seed", "21",
          "--out", str(src)])
    port = free_port()
    outdir = tmp_path / "captured"
    record_result = {}

    def run_record():
        record_result["code"] = main([
            "record", "--listen", f"127.0.0.1:{port}", "--user-id", "expert",
            "--expertise", "expert", "--session", "1", "--timeout", "10",
            "--out-dir", str(outdir),
        ])

    recorder = threading.Thread(target=run_record, daemon=True)
    recorder.start()
    deadline = time.monotonic() + 5
    streamed = None
    while time.monotonic() < deadline:
        streamed = main(["stream", "--in", str(src), "--to", f"127.0.0.1:{port}",
                         "--speed", "max"])
        if streamed == 0:
            break
        time.sleep(0.05)
    recorder.join(timeout=10)
    assert streamed == 0
    assert record_result["code"] == 0
    captured = list(outdir.glob("*.bin"))
    assert len(captured) == 1
    assert load_session(captured[0]) == load_session(src)
    # transport transparency: analyzing either file gives identical profiles
    direct, relayed = tmp_path / "direct.csv", tmp_path / "relayed.csv"
    assert main(["analyze", "--in", str(src), "--out", str(direct)]) == 0
    assert main(["analyze", "--in", str(captured[0]), "--out", str(relayed)]) == 0
    assert direct.read_bytes() == relayed.read_bytes()


def test_record_numbers_colliding_names_and_reports_receive_tallies(tmp_path, monkeypatch,
                                                                    capsys):
    from gripstream import ingest

    first = constant_recording(user_id="user")
    tallied = SessionRecording("user", Expertise.NOVICE, 1, Hand.LEFT, first.frames,
                               decode_errors=2, dropped_frames=1)

    class Recorder:
        address = ("127.0.0.1", 4321)

        def __init__(self, *args, **kwargs):
            pass

        def run(self):
            return [first, tallied]

    monkeypatch.setattr(ingest, "SessionRecorder", Recorder)
    (tmp_path / "user_s1_left.bin").write_bytes(b"taken")
    assert main(["record", "--expertise", "novice", "--out-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [str(tmp_path / "user_s1_left_2.bin"),
                                str(tmp_path / "user_s1_left_3.bin")]
    assert err == ("listening on 127.0.0.1:4321\n"
                   "user_s1_left_3.bin: 2 decode errors, 1 dropped frames\n")
    assert (tmp_path / "user_s1_left.bin").read_bytes() == b"taken"
    assert load_session(tmp_path / "user_s1_left_2.bin") == first
    assert load_session(tmp_path / "user_s1_left_3.bin") == tallied


@pytest.fixture
def no_listener(monkeypatch):
    from gripstream import ingest

    def refuse(*args, **kwargs):
        raise AssertionError("a listener was bound")

    monkeypatch.setattr(ingest, "SessionRecorder", refuse)


@pytest.mark.parametrize("session", ["-1", "11"])
def test_record_rejects_session_outside_the_study_before_listening(tmp_path, capsys,
                                                                   no_listener, session):
    outdir = tmp_path / "captured"
    code = main(["record", "--listen", "127.0.0.1:0", "--expertise", "expert",
                 "--session", session, "--timeout", "1", "--out-dir", str(outdir)])
    assert code == 1
    err = capsys.readouterr().err
    assert "argument --session: session_index must be in 1..10" in err
    assert "listening on" not in err
    assert not outdir.exists()


BAD_ENDPOINTS = ["127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:-1", ":80", "127.0.0.1",
                 "127.0.0.1:x"]


@pytest.mark.parametrize("flag, value, message", [
    *(("--listen", endpoint, f"endpoint must be HOST:PORT with port 0..65535, got '{endpoint}'")
      for endpoint in BAD_ENDPOINTS),
    ("--connections", "0", "connections must be at least 1, got 0"),
    ("--connections", "-1", "connections must be at least 1, got -1"),
    ("--timeout", "inf", "timeout must be positive and finite, got inf"),
    ("--timeout", "nan", "timeout must be positive and finite, got nan"),
    ("--timeout", "-1", "timeout must be positive and finite, got -1.0"),
    ("--timeout", "0", "timeout must be positive and finite, got 0.0"),
    *(("--user-id", user_id, f"user id must hold no path separator or NUL, got {user_id!r}")
      for user_id in ("a/b", "../up", "a\0b")),
    ("--user-id", "é" * 118, "user id must be at most 235 UTF-8 bytes, got 236"),
])
def test_record_rejects_bad_receiver_flags_before_listening(tmp_path, capsys, no_listener,
                                                            flag, value, message):
    outdir = tmp_path / "captured"
    code = main(["record", "--expertise", "expert", "--out-dir", str(outdir), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err
    assert "listening on" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("endpoint", BAD_ENDPOINTS)
def test_stream_rejects_bad_endpoint_before_reading_or_connecting(tmp_path, capsys, endpoint):
    code = main(["stream", "--in", str(tmp_path / "missing.bin"), "--to", endpoint])
    assert code == 1  # a missing --in would exit 2: the flag is checked first
    assert (f"argument --to: endpoint must be HOST:PORT with port 0..65535, got '{endpoint}'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("speed", ["0", "abc", "-2", "nan"])
def test_stream_rejects_bad_speed_before_reading_or_connecting(tmp_path, capsys, speed):
    code = main(["stream", "--in", str(tmp_path / "missing.bin"), "--to", "127.0.0.1:1",
                 "--speed", speed])
    assert code == 1  # a missing --in would exit 2: the flag is checked first
    assert f"argument --speed: must be a positive number or 'max', got '{speed}'" in (
        capsys.readouterr().err)
