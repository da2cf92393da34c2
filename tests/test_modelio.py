import hashlib
import re

import numpy as np
import pytest

from zicae.autoencoder import ABLATION_EXPERIMENTS, CsiInputs, TrainConfig, ZicAutoencoder
from zicae.channel import EquivalentChannel
from zicae.modelio import file_sha256, load_model, save_model

CFG = TrainConfig(n_channels=0, n_bits=2, batch=32, hidden_width=8, subnet2_width=4,
                  alpha_min=0.9, alpha_max=1.1, csi_mode="imperfect", sigma_e2=0.05)


def _model(seed=0, cfg=CFG):
    return ZicAutoencoder(cfg, np.random.default_rng(seed))


def test_roundtrip_preserves_everything(tmp_path):
    model = _model(1)
    model.rx1.bpn.running_ms[:] = [2.5, 0.75]  # non-default state must survive
    path = tmp_path / "m.zicmodel"
    save_model(path, model, CFG)
    loaded = load_model(path)

    for (name_a, a), (name_b, b) in zip(model.arrays(), loaded.arrays()):
        assert name_a == name_b
        assert np.array_equal(a, b), name_a
    assert loaded.arch == model.arch


def test_roundtrip_model_behaves_identically(tmp_path):
    model = _model(2)
    path = tmp_path / "m.zicmodel"
    save_model(path, model, CFG)
    loaded = load_model(path)
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(16, 2)).astype(float)
    eq = EquivalentChannel(1 + 0j, 1 + 0j, 1 + 0j, 0.1, 0.1)
    knows = CsiInputs(1.0, 1.0, 1.0, theta_delta=0.05)
    p_ref = model.forward(bits, bits, eq, knows, 0.1, rng=None)
    p_new = loaded.forward(bits, bits, eq, knows, 0.1, rng=None)
    assert np.array_equal(p_ref[0], p_new[0])
    assert np.array_equal(p_ref[1], p_new[1])


def test_save_is_byte_deterministic(tmp_path):
    model = _model(4)
    p1, p2 = tmp_path / "a.zicmodel", tmp_path / "b.zicmodel"
    save_model(p1, model, CFG)
    save_model(p2, model, CFG)
    assert p1.read_bytes() == p2.read_bytes()
    assert file_sha256(p1) == file_sha256(p2)


def test_flag_variants_roundtrip(tmp_path):
    # every architecture field differs from its default somewhere here
    for name, overrides in ABLATION_EXPERIMENTS.items():
        for csi_mode in ("perfect", "imperfect"):
            cfg = TrainConfig(n_channels=0, batch=32, n_bits=3, hidden_width=8,
                              n_res_blocks=1, subnet2_width=4, alpha_min=0.4, alpha_max=1.6,
                              total_power=2.5, train_snr_db=7.5, csi_mode=csi_mode,
                              sigma_e2=0.05, **overrides)
            model = ZicAutoencoder(cfg, np.random.default_rng(5))
            path = tmp_path / f"{name}-{csi_mode}.zicmodel"
            save_model(path, model, cfg)
            loaded = load_model(path)
            assert loaded.arch == model.arch, (name, csi_mode)
            assert all(getattr(loaded.arch, k) == v for k, v in overrides.items())
            assert len(loaded.params()) == len(model.params())


@pytest.mark.parametrize("csi_mode", ["perfect", "imperfect"])
@pytest.mark.parametrize("overrides", ABLATION_EXPERIMENTS.values(),
                         ids=list(ABLATION_EXPERIMENTS))
def test_file_holds_every_trained_parameter(overrides, csi_mode):
    cfg = TrainConfig(n_channels=0, n_bits=3, hidden_width=8, n_res_blocks=2, subnet2_width=4,
                      csi_mode=csi_mode, **overrides)
    model = ZicAutoencoder(cfg, np.random.default_rng(9))
    names = [name for name, _ in model.arrays()]
    assert len(set(names)) == len(names)
    saved = [arr for name, arr in model.arrays() if not name.endswith(".bpn.running_ms")]
    assert len(saved) == len(names) - 4
    params = model.params()
    assert len(params) == len(saved)
    assert all(p is a for p, a in zip(params, saved))
    assert [g.shape for g in model.grads()] == [p.shape for p in params]


def test_config_text_round_trips_floats():
    text = CFG.config_text()
    assert "alpha_min=0.9" in text
    assert "csi_mode=imperfect" in text
    assert text == CFG.config_text()


def test_load_rejects_non_model(tmp_path):
    path = tmp_path / "junk.zicmodel"
    path.write_bytes(b"not a model at all")
    with pytest.raises(ValueError):
        load_model(path)


def _saved(tmp_path, seed=6):
    model = _model(seed)
    path = tmp_path / "m.zicmodel"
    save_model(path, model, CFG)
    return model, path, path.read_bytes()


def _resign(data: bytes) -> bytes:
    """``data`` with its sha256 line recomputed, as a writer of that content would."""
    magic, _, body = data.split(b"\n", 2)
    return magic + b"\nsha256=" + hashlib.sha256(body).hexdigest().encode() + b"\n" + body


def _replace_line(data: bytes, pattern: str, new: bytes) -> bytes:
    head, sep, blob = data.partition(b"\nDATA\n")
    lines = head.split(b"\n")
    i = next(i for i, line in enumerate(lines) if re.match(pattern, line.decode()))
    lines[i:i + 1] = [new] if new else []
    return b"\n".join(lines) + sep + blob


def test_load_rejects_a_missing_array(tmp_path):
    model, path, data = _saved(tmp_path)
    size = model.rx2.net[-1].b.size * 8
    path.write_bytes(_resign(_replace_line(data, "array=rx2.net.3.b:", b"")[:-size]))
    with pytest.raises(ValueError, match="m.zicmodel.*array entry"):
        load_model(path)


def test_load_rejects_a_wrong_content_hash(tmp_path):
    _, path, data = _saved(tmp_path)
    path.write_bytes(_replace_line(data, "sha256=", b"sha256=" + b"0" * 64))
    with pytest.raises(ValueError, match="m.zicmodel.*sha256"):
        load_model(path)


def test_load_refuses_a_v1_file(tmp_path):
    _, path, data = _saved(tmp_path)
    _, _, body = data.split(b"\n", 2)
    path.write_bytes(b"ZICAE-MODEL v1\n" + body)
    with pytest.raises(ValueError, match="m.zicmodel: not a model file"):
        load_model(path)


@pytest.mark.parametrize("old,new", [
    (b"alpha_min=0.9", b"alpha_min=-1"),
    (b"alpha_max=1.1", b"alpha_max=2.5"),
    (b"total_power=1.0", b"total_power=4.0"),
    (b"train_snr_db=10.0", b"train_snr_db=25.0"),
])
def test_load_refuses_an_edited_header_value(tmp_path, old, new):
    _, path, data = _saved(tmp_path)
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))
    with pytest.raises(ValueError, match="m.zicmodel.*sha256"):
        load_model(path)


def test_load_refuses_a_flipped_payload_bit(tmp_path):
    _, path, data = _saved(tmp_path)
    flipped = bytearray(data)
    flipped[-1] ^= 1
    path.write_bytes(bytes(flipped))
    with pytest.raises(ValueError, match="m.zicmodel.*sha256"):
        load_model(path)


def test_load_names_the_file_for_a_missing_header_key(tmp_path):
    _, path, data = _saved(tmp_path)
    path.write_bytes(_resign(_replace_line(data, "use_shortcuts=", b"")))
    with pytest.raises(ValueError, match="m.zicmodel.*use_shortcuts"):
        load_model(path)


def _corruptions(data: bytes, rng):
    """(label, bytes) pairs: truncations, dropped, repeated, reshaped and edited lines,
    and payload bit flips; every pair differs from ``data``."""
    head, sep, blob = data.partition(b"\nDATA\n")
    lines = head.split(b"\n")

    def join(new_lines):
        return b"\n".join(new_lines) + sep + blob

    cuts = set(rng.integers(1, len(data), 40).tolist())
    cuts |= {len(head), len(head) + 1, len(head) + len(sep), len(data) - 1}
    for cut in sorted(cuts):
        yield f"truncated at {cut}", data[:cut]
    arrays = [i for i, line in enumerate(lines) if line.startswith(b"array=")]
    for i in arrays:
        yield f"dropped line {i}", join(lines[:i] + lines[i + 1:])
        yield f"repeated line {i}", join(lines[:i + 1] + lines[i:])
    for i, j in zip(arrays, arrays[1:]):
        swapped = list(lines)
        swapped[i], swapped[j] = lines[j], lines[i]
        yield f"swapped lines {i}, {j}", join(swapped)
        a, _, shape_a = lines[i].rpartition(b":")
        b, _, shape_b = lines[j].rpartition(b":")
        if shape_a != shape_b:
            reshaped = list(lines)
            reshaped[i], reshaped[j] = a + b":" + shape_b, b + b":" + shape_a
            yield f"swapped shapes {i}, {j}", join(reshaped)
    for i, line in enumerate(lines[1:], start=1):
        key, _, value = line.partition(b"=")
        if key == b"array":
            continue
        for new in (b"", b"x", b"1.2.3", b"0", b"1", b"3", b"-1", b"perfect",
                    value + b"x", value + b"0", value[:-1]):
            if new != value:
                yield f"{key.decode()}={new!r}", join(lines[:i] + [key + b"=" + new] + lines[i + 1:])
    for pos in rng.integers(len(head) + len(sep), len(data), 50).tolist():
        flipped = bytearray(data)
        flipped[pos] ^= 1 << int(rng.integers(8))
        yield f"payload bit flip at {pos}", bytes(flipped)


def test_load_corruption_fuzz(tmp_path):
    _, path, data = _saved(tmp_path)
    cases = 0
    for label, corrupted in _corruptions(data, np.random.default_rng(7)):
        path.write_bytes(corrupted)
        try:
            load_model(path)
        except ValueError as exc:
            assert str(path) in str(exc), label
        else:
            pytest.fail(f"{label}: loaded")
        cases += 1
    assert cases > 300


def test_load_rejects_re_signed_array_list_corruptions(tmp_path):
    # a valid digest does not make another writer's array list loadable
    _, path, data = _saved(tmp_path)
    cases = [(label, corrupted) for label, corrupted in _corruptions(data, np.random.default_rng(7))
             if label.startswith(("dropped", "repeated", "swapped"))]
    for label, corrupted in cases:
        path.write_bytes(_resign(corrupted))
        with pytest.raises(ValueError, match="m.zicmodel.*array entry"):
            load_model(path)
    assert len(cases) > 50
