"""Golden outputs: every command's files pinned by sha256.

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

GOLDEN = {
    "ablation.csv":
        "fb57c8b2051fb15b8507a342db6d79eefc14cf2111193bc100309d98b7627877",
    "constellation.csv":
        "5933916586a463f8730f3bda9f60d0834d87b07e6420e6327fad820b7b3514e5",
    "eval-baseline1-imperfect.csv":
        "076345175a19f50ae5f6a78d8b2e0a8f78dbc01610c0f274781398fee9cfa769",
    "eval-baseline1-perfect.csv":
        "a97a90f117353c3802170202b94c28e37f7270ac9868055780ae038032c46d65",
    "eval-baseline2-imperfect.csv":
        "f41dffb91fb908c88f3ff65eb6eecfa2b69a2d0c45694b842db5bf06776853bc",
    "eval-baseline2-perfect.csv":
        "49386feeaec37ac030d12586baab747432586cdf26021d9dc7269998b7a1aeca",
    "eval-dae-imperfect.csv":
        "0fab93b30ade83f7dfbfb5eadd456f96a0da4311fd0359a084f1be3ff2775b4a",
    "eval-dae-perfect.csv":
        "ec241417a8d5ee9fccb18f8a52fdaa83e3bef438881b1f34d04502352dd04395",
    "imperfect.zicmodel":
        "d1b859022cbe4fd431a0e9e0b1866dd778d3386eea6c24facc0bdfe97e15296a",
    "imperfect.zicmodel.train.csv":
        "e1f41ffa8035e780c95f8cee04d0564b2a33f891bced30d98b086b47d8264726",
    "perfect.zicmodel":
        "8faffa46e786d5cd9e8df7f3e2eb8160a80fa852c79eaf13514186d26194709b",
    "perfect.zicmodel.train.csv":
        "38f734229ac9fcef074abb7b43151b51bca94b71aeacd76809c6e3c3a676547d",
}


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def produce(tmp: Path) -> dict:
    """Run every command once; return output name -> bytes."""
    out: dict[str, bytes] = {}
    for mode, text in TRAIN.items():
        cfg = tmp / f"train-{mode}.cfg"
        cfg.write_text(text, encoding="utf-8")
        model = tmp / f"{mode}.zicmodel"
        _run("train", "--config", cfg, "--out", model)
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
    return out


def _digests(out: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(out.items())}


def test_outputs_match_golden_digests(tmp_path):
    assert _digests(produce(tmp_path)) == GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN =", _digests(produce(Path(tmp))))
