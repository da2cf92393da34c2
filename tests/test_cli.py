import argparse
import hashlib
import json
import logging
import re
from dataclasses import fields
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from zicae import bersim, cli, modelio
from zicae.autoencoder import TrainConfig
from zicae.bersim import EvalConfig
from zicae.cli import CONFIG_KEYS, main
from zicae.modelio import load_model

TINY_TRAIN = """
# miniature training setup
n_bits = 2
alpha_min = 0.9
alpha_max = 1.1
n_channels = 2
epochs_per_channel = 2
batch = 32
hidden_width = 8
subnet2_width = 4
seed = 1
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "absent.cfg"),
               "--out", str(tmp_path / "m.zicmodel")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "alpha_min = banana\n")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.zicmodel")])
    assert rc == 2
    assert "alpha_min" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [
    ("train", []),
    ("eval", ["--scheme", "baseline1"]),
    ("ablation", []),
], ids=["train", "eval", "ablation"])
def test_unknown_config_key_exits_2(tmp_path, capsys, command, extra):
    cfg = _write(tmp_path, "typo.cfg", "seed = 1\nn_chanel_draws = 5\n")
    rc = main([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "typo.cfg:2" in err and "'n_chanel_draws'" in err


OUT_CHECK_COMMANDS = {
    "train": ["--config", "t.cfg"],
    "eval": ["--config", "e.cfg", "--scheme", "baseline1"],
    "ablation": ["--config", "a.cfg"],
    "export-constellation": ["--model", "m.zicmodel", "--alpha", "1.0"],
}


@pytest.mark.parametrize("command,extra,existing_dir", [
    pytest.param(command, extra, existing_dir, id=command + ("-directory" * existing_dir))
    for existing_dir in (False, True) for command, extra in OUT_CHECK_COMMANDS.items()])
def test_missing_out_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                       command, extra, existing_dir):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the --out check")

    for owner, name in ((cli, "train"), (bersim, "sweep"), (modelio, "load_model")):
        monkeypatch.setattr(owner, name, refuse)
    for name, text in (("t.cfg", TINY_TRAIN), ("e.cfg", EVAL_CFG), ("a.cfg", ABLATION_CFG)):
        _write(tmp_path, name, text)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "outdir" if existing_dir else tmp_path / "nodir" / "out.csv"
    if existing_dir:
        out.mkdir()
    rc = main([command, *extra, "--out", str(out)])
    assert rc == 2
    assert str(out) in capsys.readouterr().err
    if existing_dir:
        assert list(out.iterdir()) == []
    else:
        assert not out.parent.exists()


def test_train_zero_channels_writes_valid_model(tmp_path):
    cfg = _write(tmp_path, "t.cfg", TINY_TRAIN.replace("n_channels = 2", "n_channels = 0"))
    out = tmp_path / "m.zicmodel"
    rc = main(["train", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    model = load_model(out)
    assert model.arch.n_bits == 2
    manifest = json.loads((tmp_path / "m.zicmodel.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert str(out) in manifest["outputs"]
    log = (tmp_path / "m.zicmodel.train.csv").read_text()
    assert log.splitlines()[0] == "channel,alpha,loss,lr"


def test_train_replay_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "t.cfg", TINY_TRAIN)
    out1, out2 = tmp_path / "a.zicmodel", tmp_path / "b.zicmodel"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


EVAL_CFG = """
snr_grid_db = 10
alpha_grid = 0, 0.5, 1
n_channel_draws = 2
n_symbols_per_point = 2000
seed = 3
"""


def test_eval_baseline_csv_rows(tmp_path):
    cfg = _write(tmp_path, "e.cfg", EVAL_CFG)
    out = tmp_path / "res.csv"
    rc = main(["eval", "--config", str(cfg), "--scheme", "baseline1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# run: ")
    assert lines[1] == "scheme,snr_db,alpha,ber1,ber2,ber_worst,stderr,n_bits"
    assert len(lines) == 2 + 3  # one row per grid point


@pytest.mark.parametrize("csi", ["", "csi_mode = imperfect\nsigma_e2 = 0.05\nthreshold_t = 0.3\n"],
                         ids=["perfect", "imperfect"])
def test_eval_logs_kept_draws_and_attempts_per_point(tmp_path, caplog, csi):
    cfg = _write(tmp_path, "e.cfg", EVAL_CFG + "n_channel_draws = 40\n" + csi)
    caplog.set_level(logging.DEBUG, logger="zicae")
    assert main(["eval", "--config", str(cfg), "--scheme", "baseline1",
                 "--out", str(tmp_path / "r.csv")]) == 0
    lines = [r.getMessage() for r in caplog.records if "attempts" in r.getMessage()]
    assert len(lines) == 3  # one per grid point
    for line, alpha in zip(lines, ("0", "0.5", "1")):
        found = re.fullmatch(rf"baseline1 at 10 dB, alpha {alpha}: 40 channel draws kept "
                             r"of (\d+) attempts", line)
        assert found, line
        attempts = int(found[1])
        assert attempts == 40 if not csi else attempts > 40
    assert "attempts" not in (tmp_path / "r.csv").read_text()


def test_eval_replay_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "e.cfg", EVAL_CFG)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["eval", "--config", str(cfg), "--scheme", "baseline2",
                 "--out", str(out1)]) == 0
    assert main(["eval", "--config", str(cfg), "--scheme", "baseline2",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("flags,named", [
    (["--scheme", "baseline1", "--model", "absent.zicmodel"], "--model"),
    (["--scheme", "baseline2", "--model", "absent.zicmodel"], "--model"),
    (["--scheme", "baseline1", "--model-dir", "absent"], "--model-dir"),
    (["--scheme", "baseline2", "--model-dir", "absent"], "--model-dir"),
    (["--scheme", "dae", "--model", "absent.zicmodel", "--model-dir", "absent"], "--model-dir"),
], ids=["b1-model", "b2-model", "b1-model-dir", "b2-model-dir", "model-and-dir"])
def test_eval_refuses_ignored_flags(tmp_path, capsys, flags, named):
    cfg = _write(tmp_path, "e.cfg", EVAL_CFG)
    out = tmp_path / "r.csv"
    rc = main(["eval", "--config", str(cfg), *flags, "--out", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_eval_dae_uncovered_alpha_names_interval(tmp_path, capsys):
    train_cfg = _write(tmp_path, "t.cfg", TINY_TRAIN)
    model = tmp_path / "m.zicmodel"
    assert main(["train", "--config", str(train_cfg), "--out", str(model)]) == 0
    eval_cfg = _write(tmp_path, "e.cfg", EVAL_CFG)  # grid contains alpha=0
    rc = main(["eval", "--config", str(eval_cfg), "--scheme", "dae",
               "--model", str(model), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "alpha=0" in err and "[0.9, 1.1]" in err


def test_eval_dae_csi_mode_mismatch_rejected(tmp_path, capsys):
    train_cfg = _write(tmp_path, "t.cfg", TINY_TRAIN)  # perfect-CSI model
    model = tmp_path / "m.zicmodel"
    assert main(["train", "--config", str(train_cfg), "--out", str(model)]) == 0
    eval_cfg = _write(tmp_path, "e.cfg",
                      EVAL_CFG.replace("alpha_grid = 0, 0.5, 1", "alpha_grid = 1.0")
                      + "csi_mode = imperfect\nsigma_e2 = 0.05\n")
    rc = main(["eval", "--config", str(eval_cfg), "--scheme", "dae",
               "--model", str(model), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "perfect" in capsys.readouterr().err


@pytest.mark.parametrize("line,trained", [("n_bits = 3", "n_bits=2"),
                                          ("total_power = 4.0", "total_power=1.0")],
                         ids=["n_bits", "total_power"])
def test_eval_dae_symbol_setting_mismatch_rejected(tmp_path, capsys, line, trained):
    train_cfg = _write(tmp_path, "t.cfg", TINY_TRAIN)  # n_bits 2, total_power 1
    model = tmp_path / "m.zicmodel"
    assert main(["train", "--config", str(train_cfg), "--out", str(model)]) == 0
    eval_cfg = _write(tmp_path, "e.cfg",
                      EVAL_CFG.replace("alpha_grid = 0, 0.5, 1", "alpha_grid = 1.0") + line)
    out = tmp_path / "r.csv"
    rc = main(["eval", "--config", str(eval_cfg), "--scheme", "dae",
               "--model", str(model), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "m.zicmodel" in err and trained in err and line.replace(" = ", "=") in err
    assert not out.exists()


def test_eval_dae_with_model_dir(tmp_path):
    train_cfg = _write(tmp_path, "t.cfg", TINY_TRAIN)
    model_dir = tmp_path / "models"
    model_dir.mkdir()
    assert main(["train", "--config", str(train_cfg),
                 "--out", str(model_dir / "m.zicmodel")]) == 0
    eval_cfg = _write(tmp_path, "e.cfg", EVAL_CFG.replace("alpha_grid = 0, 0.5, 1",
                                                          "alpha_grid = 1.0"))
    out = tmp_path / "r.csv"
    rc = main(["eval", "--config", str(eval_cfg), "--scheme", "dae",
               "--model-dir", str(model_dir), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_export_constellation(tmp_path):
    train_cfg = _write(tmp_path, "t.cfg", TINY_TRAIN)
    model = tmp_path / "m.zicmodel"
    assert main(["train", "--config", str(train_cfg), "--out", str(model)]) == 0
    out = tmp_path / "const.csv"
    rc = main(["export-constellation", "--model", str(model),
               "--alpha", "1.0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "user,bits,re,im"
    assert len(lines) == 1 + 8  # 4 points per user


def test_export_out_of_interval_alpha_fails(tmp_path, capsys):
    train_cfg = _write(tmp_path, "t.cfg", TINY_TRAIN)
    model = tmp_path / "m.zicmodel"
    assert main(["train", "--config", str(train_cfg), "--out", str(model)]) == 0
    rc = main(["export-constellation", "--model", str(model),
               "--alpha", "2.5", "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert "interval" in capsys.readouterr().err


def test_export_power_audit_on_trained_model(desk_model_file, tmp_path):
    out = tmp_path / "const.csv"
    rc = main(["export-constellation", "--model", str(desk_model_file),
               "--alpha", "1.0", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    power = {1: [], 2: []}
    for row in rows:
        user, _, re, im = row.split(",")
        power[int(user)].append(float(re) ** 2 + float(im) ** 2)
    for user in (1, 2):
        assert np.mean(power[user]) == pytest.approx(1.0, rel=0.05)


ABLATION_CFG = """
alpha_min = 0.4
alpha_max = 1.6
n_channels = 2
epochs_per_channel = 1
batch = 32
hidden_width = 8
subnet2_width = 4
seed = 2
n_channel_draws = 2
n_symbols_per_point = 500
"""


def test_ablation_table_shape(tmp_path):
    cfg = _write(tmp_path, "a.cfg", ABLATION_CFG)
    out = tmp_path / "ablation.csv"
    rc = main(["ablation", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["alpha", "proposed", "exp1", "exp2", "exp3", "exp4",
                      "exp5", "exp6"]
    assert len(lines) == 1 + 3
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")]
        assert cells[0] in (0.5, 1.0, 1.5)
        assert all(0.0 <= v <= 1.0 for v in cells[1:])


def test_ablation_evaluates_under_the_training_csi_model(tmp_path):
    cfg = _write(tmp_path, "a.cfg",
                 ABLATION_CFG + "csi_mode = imperfect\nsigma_e2 = 0.05\n")
    out = tmp_path / "ablation.csv"
    rc = main(["ablation", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 3


def test_ablation_rejects_uncovering_config(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", ABLATION_CFG.replace("alpha_max = 1.6",
                                                         "alpha_max = 1.2"))
    rc = main(["ablation", "--config", str(cfg), "--out", str(tmp_path / "a.csv")])
    assert rc == 2
    assert "cover" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["use_shortcuts = 0", "alpha_to_subnet1 = 0",
                                  "alpha_to_subnet2 = 0", "alpha_to_rx = 0", "use_subnet2 = 0",
                                  "snr_grid_db = 25", "alpha_grid = 2.5"])
def test_ablation_refuses_keys_it_sets_itself(tmp_path, capsys, line):
    cfg = _write(tmp_path, "a.cfg", ABLATION_CFG + line + "\n")
    out = tmp_path / "a.csv"
    rc = main(["ablation", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert repr(line.split()[0]) in capsys.readouterr().err
    assert not out.exists()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run_id(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("command", ["train", "eval-baseline2", "eval-dae",
                                     "export-constellation", "ablation"])
def test_manifest_records_config_seed_and_file_hashes(tmp_path, command):
    t_cfg = _write(tmp_path, "t.cfg", TINY_TRAIN)
    e_cfg = _write(tmp_path, "e.cfg", EVAL_CFG.replace("alpha_grid = 0, 0.5, 1",
                                                       "alpha_grid = 1.0"))
    a_cfg = _write(tmp_path, "a.cfg", ABLATION_CFG)
    model, out = tmp_path / "m.zicmodel", tmp_path / "out.csv"
    if command != "train":
        assert main(["train", "--config", str(t_cfg), "--out", str(model)]) == 0

    def config_text(cls, path):
        return cli.config_from(cls, cli.parse_config_file(path)).config_text()

    if command == "train":
        argv = ["train", "--config", str(t_cfg), "--out", str(model)]
        text, seed = config_text(TrainConfig, t_cfg), 1
        run_id = _run_id("train", text)
        inputs, outputs = [t_cfg], [model, Path(f"{model}.train.csv")]
    elif command.startswith("eval"):
        scheme = command.removeprefix("eval-")
        models = [model] if scheme == "dae" else []
        argv = ["eval", "--config", str(e_cfg), "--scheme", scheme,
                *(["--model", str(model)] if models else []), "--out", str(out)]
        text, seed = config_text(EvalConfig, e_cfg), 3
        run_id = _run_id("eval", scheme, text, *map(_sha256, models))
        inputs, outputs = [e_cfg, *models], [out]
    elif command == "export-constellation":
        argv = ["export-constellation", "--model", str(model), "--alpha", "1.0",
                "--out", str(out)]
        text, seed = None, 0
        run_id = _run_id("export", _sha256(model), repr(1.0))
        inputs, outputs = [model], [out]
    else:
        argv = ["ablation", "--config", str(a_cfg), "--out", str(out)]
        text, seed = config_text(TrainConfig, a_cfg), 2
        run_id = _run_id("ablation", text)
        inputs, outputs = [a_cfg], [out]

    assert main(argv) == 0
    manifest = json.loads(Path(f"{argv[-1]}.manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"command", "run_id", "config_digest", "seed", "inputs",
                             "outputs", "started", "finished"}
    assert manifest["command"] == argv[0]
    assert manifest["run_id"] == run_id
    if command.startswith("eval"):
        assert out.read_text().splitlines()[0] == f"# run: {run_id}"
    assert manifest["config_digest"] == (
        "-" if text is None else hashlib.sha256(text.encode()).hexdigest())
    assert manifest["seed"] == seed
    assert manifest["inputs"] == {str(p): _sha256(p) for p in inputs}
    assert manifest["outputs"] == {str(p): _sha256(p) for p in outputs}
    started, finished = (datetime.fromisoformat(manifest[k]) for k in ("started", "finished"))
    assert started <= finished


HARSH_ESTIMATION = "csi_mode = imperfect\nsigma_e2 = 2\nthreshold_t = 0.05\n"


@pytest.mark.parametrize("command,text,extra", [
    ("train", TINY_TRAIN, []),
    ("eval", EVAL_CFG, ["--scheme", "baseline2"]),
], ids=["train", "eval"])
def test_unusable_estimation_setting_fails_fast(tmp_path, capsys, command, text, extra):
    # 0 of 20000 estimates pass the keep rule here; the attempt cap ends the run
    cfg = _write(tmp_path, "c.cfg", text + HARSH_ESTIMATION)
    rc = main([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sigma_e2=2.0" in err and "threshold_t=0.05" in err
    assert "100000 attempts" in err and "acceptance 0/100000" in err


@pytest.mark.parametrize("line", ["n_bits = 0", "total_power = 0", "sigma_h2 = -1",
                                  "n_q = 0", "sigma_e2 = -0.1", "threshold_t = 0",
                                  "csi_mode = psychic", "n_symbols_per_point = -5",
                                  "alpha_grid = -1", "alpha_grid = 0.5, inf",
                                  "snr_grid_db = 10, nan", "snr_grid_db = -inf",
                                  "seed = -2"])
def test_eval_invalid_channel_value_exits_2(tmp_path, capsys, line):
    cfg = _write(tmp_path, "e.cfg", EVAL_CFG + line + "\n")
    rc = main(["eval", "--config", str(cfg), "--scheme", "baseline1",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert line.split()[0] in capsys.readouterr().err


# key line -> (a line that leaves the key unread, the setting the error names,
# a line under which the key is read)
UNREAD = {
    **dict.fromkeys(["sigma_e2 = 0.05", "threshold_t = 0.5", "n_q = 2"],
                    ("", "csi_mode = imperfect", "csi_mode = imperfect")),
    # EVAL_CFG and ABLATION_CFG fix the symbols per draw
    **dict.fromkeys(["min_errors = 20", "max_bits = 20000"],
                    ("", "n_symbols_per_point = 0", "n_symbols_per_point = 0")),
    **dict.fromkeys(["alpha_to_subnet2 = 0", "subnet2_width = 8"],
                    ("use_subnet2 = 0\n", "use_subnet2 = 1", "use_subnet2 = 1")),
    "use_shortcuts = 0": ("n_res_blocks = 0\n", "n_res_blocks >= 1", "n_res_blocks = 1"),
}
COMMANDS = {"train": (TINY_TRAIN, []), "eval": (EVAL_CFG, ["--scheme", "baseline1"]),
            "ablation": (ABLATION_CFG, [])}


@pytest.mark.parametrize("command,line", [
    pytest.param(command, line, id=f"{command}-{line}") for command, lines in (
        ("train", ["n_q = 2", "sigma_e2 = 0.05", "threshold_t = 0.5", "alpha_to_subnet2 = 0",
                   "subnet2_width = 8", "use_shortcuts = 0"]),
        ("eval", ["n_q = 2", "sigma_e2 = 0.05", "threshold_t = 0.5", "min_errors = 20",
                  "max_bits = 20000"]),
        ("ablation", ["min_errors = 20"]),
    ) for line in lines])
def test_imperfect_only_key_under_perfect_csi_exits_2(tmp_path, capsys, command, line):
    """A key that its deciding field's setting leaves unread exits 2, naming the key and
    the setting; the same file with that setting changed runs."""
    text, extra = COMMANDS[command]
    unread, setting, fix = UNREAD[line]
    cfg = _write(tmp_path, "c.cfg", text + unread + line + "\n")
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), *extra, "--out", str(out)])
    assert rc == 2
    assert f"{line.split()[0]} is only read with {setting}" in capsys.readouterr().err
    assert not out.exists()
    _write(tmp_path, "c.cfg", text + unread + line + "\n" + fix + "\n")
    assert main([command, "--config", str(cfg), *extra, "--out", str(out)]) == 0


@pytest.mark.parametrize("line", ["alpha_min = -1", "alpha_max = inf",
                                  "train_snr_db = nan", "train_snr_db = inf"])
def test_train_invalid_value_exits_2(tmp_path, capsys, line):
    cfg = _write(tmp_path, "t.cfg", TINY_TRAIN + line + "\n")
    out = tmp_path / "m.zicmodel"
    rc = main(["train", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not out.exists()


def _rule_violations():
    """``(command, key, text)`` for each way a numeric config key can break its rule.

    Below the lower bound (at it, if it is open), above the upper bound, and
    inf and nan for float keys; a grid is also tried empty.  An SNR whose
    noise power overflows or underflows to zero breaks the rule too.
    """
    cases = [("train", "n_q", "1100"), ("eval", "n_q", "1100"),
             ("eval", "snr_grid_db", "4000"), ("eval", "snr_grid_db", "-4000"),
             ("train", "train_snr_db", "4000")]
    for key in sorted(CONFIG_KEYS):
        for command, cls in (("train", TrainConfig), ("eval", EvalConfig)):
            f = {f.name: f for f in fields(cls)}.get(key.removesuffix("_re").removesuffix("_im"))
            if f is None or f.name == "csi_mode" or isinstance(f.default, bool):
                continue
            lo, hi, open_lo = f.metadata["rule"]
            texts = [] if lo is None else [str(lo - 1)] + ([str(lo)] if open_lo else [])
            texts += [] if hi is None else [str(hi + 1)]
            texts += [] if isinstance(f.default, int) else ["inf", "nan"]
            texts += [","] if isinstance(f.default, tuple) else []
            cases += [(command, key, text) for text in texts]
    return cases


@pytest.mark.parametrize("command,key,text", _rule_violations(),
                         ids=lambda v: v.replace(",", "comma"))
def test_rule_violation_exits_2_naming_the_key(tmp_path, capsys, command, key, text):
    base, extra = (TINY_TRAIN, []) if command == "train" else (EVAL_CFG, ["--scheme", "baseline1"])
    cfg = _write(tmp_path, "c.cfg", f"{base}{key} = {text}\n")
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), *extra, "--out", str(out)])
    assert rc == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command,text,extra", [
    ("train", TINY_TRAIN, []),
    ("eval", EVAL_CFG, ["--scheme", "baseline1"]),
], ids=["train", "eval"])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command, text, extra):
    cfg = _write(tmp_path, "c.cfg", text)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), *extra, "--seed", "-1", "--out", str(out)])
    assert rc == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,text,extra", [
    ("train", TINY_TRAIN, []),
    ("eval", EVAL_CFG, ["--scheme", "baseline1"]),
], ids=["train", "eval"])
def test_always_zero_direct_gain_exits_2(tmp_path, capsys, command, text, extra):
    cfg = _write(tmp_path, "c.cfg", text + "mu_h_re = 0\nsigma_h2 = 0\n")
    rc = main([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "mu_h_re" in err and "sigma_h2" in err


def test_unexpected_error_exits_1_and_logs_its_traceback(tmp_path, capsys, caplog,
                                                        monkeypatch):
    def broken(cfg):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(cli, "train", broken)
    monkeypatch.setenv("ZIC_LOG", "DEBUG")
    caplog.set_level(logging.DEBUG, logger="zicae")
    cfg = _write(tmp_path, "t.cfg", TINY_TRAIN)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.zicmodel")]) == 1
    assert "error: broken on purpose" in capsys.readouterr().err
    record, = [r for r in caplog.records if r.exc_info]
    assert record.levelno == logging.DEBUG and record.exc_info[0] is RuntimeError


def test_eval_has_no_threads_option(tmp_path):
    cfg = _write(tmp_path, "e.cfg", EVAL_CFG)
    with pytest.raises(SystemExit):
        main(["eval", "--config", str(cfg), "--scheme", "baseline1",
              "--out", str(tmp_path / "r.csv"), "--threads", "2"])
    assert not (tmp_path / "r.csv").exists()


def test_ablation_has_no_threads_option(tmp_path):
    cfg = _write(tmp_path, "a.cfg", ABLATION_CFG)
    with pytest.raises(SystemExit):
        main(["ablation", "--config", str(cfg), "--out", str(tmp_path / "a.csv"),
              "--threads", "2"])


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_paragraph_names_every_config_key():
    readme = README.read_text(encoding="utf-8")
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Training keys"))
    named = {token.split("=")[0] for token in re.findall(r"`([^`]+)`", paragraph)}
    assert named == CONFIG_KEYS


def test_readme_command_block_names_every_subcommand():
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    named = re.findall(r"^zicae (\S+)", block, re.M)
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert set(named) == set(subcommands)
