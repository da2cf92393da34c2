"""Golden outputs: every command's files pinned by sha256.

The digests were taken before training and evaluation shared one channel
config, and the outputs kept them, with one declared difference: training
configs render their keys in field order (the shared channel fields first),
so a model file's ``config_sha256=`` header line changed.  The test checks
that line against its current value, puts the earlier line back and then
compares the whole file, so every other byte must match.  The restored files
are what ``eval --scheme dae`` and ``export-constellation`` read, so the
``# run:`` ids, which hash the model files, stay comparable.

Run this module as a script to print the digests of the code on
``PYTHONPATH``.
"""

import hashlib
from pathlib import Path

from zicae.cli import main

TRAIN = {
    "perfect": """
n_bits = 2
alpha_min = 0.5
alpha_max = 1.5
n_channels = 3
epochs_per_channel = 2
batch = 64
lr = 0.02
decay_every = 2
hidden_width = 8
subnet2_width = 4
seed = 1
""",
    "imperfect": """
n_bits = 2
alpha_min = 0.5
alpha_max = 1.5
n_channels = 3
epochs_per_channel = 2
batch = 64
hidden_width = 8
n_res_blocks = 1
subnet2_width = 4
seed = 2
csi_mode = imperfect
sigma_e2 = 0.05
threshold_t = 0.5
n_q = 2
mu_h_re = 0.9
mu_h_im = 0.2
sigma_h2 = 0.2
alpha_to_subnet1 = 0
""",
}

EVAL = {
    "perfect": """
snr_grid_db = 5, 10
alpha_grid = 0.5, 1.0, 1.5
n_channel_draws = 3
n_symbols_per_point = 0
min_errors = 20
max_bits = 20000
seed = 4
""",
    "imperfect": """
snr_grid_db = 5, 10
alpha_grid = 0.5, 1.0, 1.5
n_channel_draws = 3
n_symbols_per_point = 300
seed = 5
csi_mode = imperfect
sigma_e2 = 0.05
threshold_t = 0.5
n_q = 2
mu_h_re = 0.9
mu_h_im = 0.2
sigma_h2 = 0.2
""",
}

# the size of test_cli.ABLATION_CFG
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

# config_sha256 header values: the earlier rendering, and the current one
EARLIER_CONFIG_SHA256 = {
    "perfect":
        "5c347ad4740002557cd5dd58df93ebe6d1d48c1781443156daf7c898e64b1924",
    "imperfect":
        "8d046697d6f1b20e74f9a7195e822e256636878d734bfb13169b397ead251527",
}
CONFIG_SHA256 = {
    "perfect":
        "2bfd909b0836ea9c4503c3e10bee1238aeda4ac116611455ee1cbdfdefb2adce",
    "imperfect":
        "f73e02f0c111068a00d97745cfe45b134f3f0094a805be327e9323b0ab62a277",
}

GOLDEN = {
    "ablation.csv":
        "af7e598c026eed1050a5dd61a745954f26c568ad3eba0d42ac542334e505d6e6",
    "constellation.csv":
        "a4a4baec978430ac95d4f6e376c01ea3f7e2df3bfd7a6401c330f771732edfaa",
    "eval-baseline1-imperfect.csv":
        "caaeea237cf5ab738be68856232c922ca01ad42013cf95fa0c69b7fd29d91a9a",
    "eval-baseline1-perfect.csv":
        "432a8c2e43774964a34a70a165edfe0949fa160816f5ad459b3ca9ebd46dbd03",
    "eval-baseline2-imperfect.csv":
        "c91a3ebe3b1366df5b0c530952d1b97bf8c1c6595998bbf4cf66748595087f98",
    "eval-baseline2-perfect.csv":
        "9f69ba20d8bc4f38dca29cd0137af733b216b2263e6aaea667090510553712ae",
    "eval-dae-imperfect.csv":
        "220484fa196ff5125429cd2e47cc8662713217b344a17b5f5420d863a876d923",
    "eval-dae-perfect.csv":
        "b9426397ff70de17cf3db1b6eef290a35aad0a465d74f144849900afd2c8d89c",
    "imperfect.zicmodel":
        "5697c2377dee0e52a1ce0be8af2af86cb1cf1cf1a3b479403a40481897ae44e0",
    "imperfect.zicmodel.train.csv":
        "e1f41ffa8035e780c95f8cee04d0564b2a33f891bced30d98b086b47d8264726",
    "perfect.zicmodel":
        "bddfa6368c32e412c77d52108d6ad35b28c41b16338a747d03e74b3727b362fd",
    "perfect.zicmodel.train.csv":
        "e5676816a29cb827dcddcfa529b08a025d6179442d03875dc611024189e7aa3e",
}


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def _swap_config_line(path: Path, value: str | None) -> str:
    """Replace the model's config_sha256 value by ``value``; return the old one."""
    lines = path.read_bytes().split(b"\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(b"config_sha256="))
    old = lines[i].partition(b"=")[2].decode()
    if value is not None:
        lines[i] = f"config_sha256={value}".encode()
        path.write_bytes(b"\n".join(lines))
    return old


def produce(tmp: Path, earlier_config_sha256: dict) -> tuple[dict, dict]:
    """Run every command once; return (output name -> bytes, config_sha256 values)."""
    out: dict[str, bytes] = {}
    config_sha256: dict[str, str] = {}
    for mode, text in TRAIN.items():
        cfg = tmp / f"train-{mode}.cfg"
        cfg.write_text(text, encoding="utf-8")
        model = tmp / f"{mode}.zicmodel"
        _run("train", "--config", cfg, "--out", model)
        config_sha256[mode] = _swap_config_line(model, earlier_config_sha256.get(mode))
        out[model.name] = model.read_bytes()
        out[f"{model.name}.train.csv"] = Path(f"{model}.train.csv").read_bytes()
    for mode, text in EVAL.items():
        cfg = tmp / f"eval-{mode}.cfg"
        cfg.write_text(text, encoding="utf-8")
        for scheme in ("baseline1", "baseline2", "dae"):
            csv = tmp / f"eval-{scheme}-{mode}.csv"
            models = ["--model", tmp / f"{mode}.zicmodel"] if scheme == "dae" else []
            _run("eval", "--config", cfg, "--scheme", scheme, *models, "--out", csv)
            out[csv.name] = csv.read_bytes()
    csv = tmp / "constellation.csv"
    _run("export-constellation", "--model", tmp / "perfect.zicmodel", "--alpha", "1.0",
         "--out", csv)
    out[csv.name] = csv.read_bytes()
    cfg = tmp / "ablation.cfg"
    cfg.write_text(ABLATION_CFG, encoding="utf-8")
    csv = tmp / "ablation.csv"
    _run("ablation", "--config", cfg, "--out", csv)
    out[csv.name] = csv.read_bytes()
    return out, config_sha256


def _digests(out: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(out.items())}


def test_outputs_match_golden_digests(tmp_path):
    out, config_sha256 = produce(tmp_path, EARLIER_CONFIG_SHA256)
    assert config_sha256 == CONFIG_SHA256
    assert _digests(out) == GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs, values = produce(Path(tmp), {})
    print("CONFIG_SHA256 =", values)
    print("GOLDEN =", _digests(outputs))
