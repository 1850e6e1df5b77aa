"""simulate with config files whose keys or sensor models the simulator cannot use."""

import pytest

from gripstream.cli import main
from gripstream.ingest import load_session
from gripstream.protocol import AMPLITUDE_MAX


def simulate(tmp_path, config_text):
    conf = tmp_path / "c.conf"
    conf.write_text(config_text, encoding="utf-8")
    out = tmp_path / "s.bin"
    return main(["simulate", "--config", str(conf), "--out", str(out)]), conf, out


@pytest.mark.parametrize("value", ["inf,1", "nan,1", "1,inf", "-inf,1"])
def test_non_finite_sensor_model_names_its_key_and_file(tmp_path, capsys, value):
    code, conf, out = simulate(tmp_path, f"expertise = novice\nsensor7 = {value}\n")
    err = capsys.readouterr().err
    assert code == 2
    assert f"{conf}: sensor7 = {value}:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_huge_sensor_spread_clamps_to_the_u16_range(tmp_path):
    code, _, out = simulate(tmp_path, "expertise = novice\nduration = 2\nsensor7 = 1,1e308\n")
    assert code == 0
    values = [frame.amplitudes[6] for frame in load_session(out).frames]
    assert len(values) == 100
    assert set(values) <= {0, AMPLITUDE_MAX}
    assert 0 in values and AMPLITUDE_MAX in values


def test_unknown_key_names_it_and_the_file(tmp_path, capsys):
    code, conf, out = simulate(tmp_path, "expertise = novice\nsesion = 10\nseed = 3\n")
    err = capsys.readouterr().err
    assert code == 2
    assert f"{conf}: sesion = 10: unknown key" in err
    assert not out.exists()
