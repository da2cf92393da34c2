"""Train the models that the eval-dae-perfect workload loads.

Usage: ``PYTHONPATH=src python3 zicbench/prepare.py <directory>``.  The
models come from fixed seeds, so the directory's content depends only on the
program's source.  Files are written to a temporary directory that is renamed
into place at the end, so a cut-off run leaves no partial cache behind.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from zicae import modelio
from zicae.autoencoder import TrainConfig, train

from workloads import DAE_MODELS, DAE_TRAIN


def main(out_dir: str) -> int:
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=out.name + ".", dir=out.parent))
    try:
        for lo, hi, seed in DAE_MODELS:
            cfg = TrainConfig(alpha_min=lo, alpha_max=hi, seed=seed, **DAE_TRAIN)
            model, _ = train(cfg)
            modelio.save_model(tmp / f"a{lo:g}-{hi:g}.zicmodel", model, cfg)
        if out.exists():
            shutil.rmtree(out)
        tmp.rename(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
