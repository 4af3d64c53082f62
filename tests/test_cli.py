import contextlib
import io
import json
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from idx_fixtures import write_idx_images

from tessae import experiments
from tessae.autoencoder import init_params, save_checkpoint
from tessae.cli import main
from tessae.data import IDX_IMAGES_MAGIC
from tessae.tessellation import e8_roots, e8_tessellation, lloyd_cvt
from tessae.trainer import TrainingAborted


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [["rates", "--seed", "1e3"], ["frobnicate"], ["cvt", "--m", "4"]],
                         ids=["rates-seed-not-int", "unknown-subcommand", "cvt-without-dim"])
def test_usage_error_is_one_line_exit_2(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_cvt_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["cvt", "--dim", "2", "--m", "16", "--seed", "7",
                     "--out", str(out)]) == 0
    t1 = (out1 / "tessellation.json").read_bytes()
    t2 = (out2 / "tessellation.json").read_bytes()
    assert t1 == t2
    assert (out1 / "resolved_config.json").exists()


def test_e8_writes_dim_generators_and_kind(tmp_path):
    assert main(["e8", "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "tessellation.json").read_text())
    assert sorted(obj) == ["dim", "generators", "kind"]
    assert np.array_equal(obj["generators"], e8_tessellation().generators)


def test_ineq_defaults_pass(tmp_path):
    out = tmp_path / "ineq"
    assert main(["ineq", "--trials", "5", "--out", str(out)]) == 0
    for m in (2, 4, 8):
        assert (out / f"ineq_m{m}.csv").exists()
    assert (out / "trace_bound.csv").exists()


def test_ineq_dim_1_passes(tmp_path, capsys):
    # a kind-0 trial shifts b's mean; the trace bound counts the shift
    assert main(["ineq", "--dim", "1", "--n-points", "8", "--trials", "1",
                 "--out", str(tmp_path / "ineq")]) == 0
    assert "trace bound: violations=0 of 3" in capsys.readouterr().out


def test_varcheck_pass(tmp_path):
    out = tmp_path / "var"
    assert main(["varcheck", "--dim", "4", "--n", "16", "--trials", "100",
                 "--out", str(out)]) == 0
    assert (out / "varcheck.csv").exists()


def test_train_and_gap_roundtrip(tmp_path, capsys):
    train_out = tmp_path / "train"
    code = main(["train", "--mode", "twae", "--dataset", "ring", "--modes", "8",
                 "--count", "200", "--n-chunk", "40", "--m", "4", "--epochs", "1",
                 "--latent-dim", "2", "--hidden", "8", "--projections", "8",
                 "--out", str(train_out), "--seed", "0"])
    assert code == 0
    for name in ("checkpoint.json", "checkpoint.bin", "metrics.csv",
                 "tessellation.json", "resolved_config.json"):
        assert (train_out / name).exists()
    gap_out = tmp_path / "gap"
    code = main(["gap", "--checkpoint", str(train_out / "checkpoint"),
                 "--tessellation", str(train_out / "tessellation.json"),
                 "--dataset", "ring", "--modes", "8", "--count", "200",
                 "--n", "10", "--trials", "2", "--projections", "16",
                 "--out", str(gap_out), "--seed", "0"])
    assert code == 0
    assert (gap_out / "gap.csv").exists()
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("gap: ") and " topped_up=" in summary


def test_train_defaults(tmp_path):
    # the default --count holds whole chunks of the default --n-chunk
    assert main(["train", "--epochs", "1", "--projections", "8",
                 "--out", str(tmp_path / "o")]) == 0


def test_train_all_modes(tmp_path):
    for mode in ("twae-reg", "baseline"):
        out = tmp_path / mode
        code = main(["train", "--mode", mode, "--count", "80", "--n-chunk", "40",
                     "--m", "4", "--epochs", "1", "--hidden", "8",
                     "--projections", "8", "--out", str(out)])
        assert code == 0


def test_train_idx_dataset(tmp_path):
    img = tmp_path / "imgs.idx"
    rng = np.random.default_rng(0)
    write_idx_images(img, rng.integers(0, 256, size=(80, 4, 4), dtype=np.uint8).astype(np.uint8))
    out = tmp_path / "idx_train"
    code = main(["train", "--dataset", "idx", "--idx-images", str(img),
                 "--n-chunk", "40", "--m", "4", "--epochs", "1",
                 "--hidden", "8", "--projections", "8", "--out", str(out)])
    assert code == 0


def test_idx_without_path_is_usage_error(tmp_path):
    assert main(["train", "--dataset", "idx", "--out", str(tmp_path / "x")]) == 2


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 2\nm = 4  # four regions\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["cvt", "--config", str(cfg), "--m", "2",
                 "--out", str(out)]) == 0
    snapshot = json.loads((out / "resolved_config.json").read_text())
    assert snapshot["dim"] == 2      # from the file
    assert snapshot["m"] == 2        # flag wins
    assert snapshot["seed"] == 3


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobs = 9\n")
    assert main(["cvt", "--config", str(cfg), "--dim", "2", "--m", "2",
                 "--out", str(tmp_path / "o")]) == 2


def test_config_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no equals sign here\n")
    assert main(["cvt", "--config", str(cfg), "--dim", "2", "--m", "2",
                 "--out", str(tmp_path / "o")]) == 2


SMALL_TRAIN = ["--count", "80", "--n-chunk", "40", "--m", "4", "--hidden", "8",
               "--projections", "8"]


@pytest.mark.parametrize("line", ["mode = bogus", "tessellation = XYZ",
                                  "estimator = FOO", "epochs = x", "= 3"])
def test_bad_config_line_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), *SMALL_TRAIN, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["lambda = 4\nn-chunk = 40\n", "lam = 4\nn_chunk = 40\n"],
                         ids=["flag-names", "dest-names"])
def test_config_keys_are_flag_names(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--count", "80", "--m", "4",
                 "--epochs", "1", "--hidden", "8", "--projections", "8",
                 "--out", str(out)]) == 0
    snapshot = json.loads((out / "resolved_config.json").read_text())
    assert (snapshot["lam"], snapshot["n_chunk"]) == (4.0, 40)


def test_assign_bench_small(tmp_path):
    out = tmp_path / "bench"
    assert main(["assign-bench", "--n-points", "60", "--m", "6", "--dim", "2",
                 "--out", str(out)]) == 0
    text = (out / "assign_bench.csv").read_bytes().decode()
    lines = text.splitlines()
    assert lines[0] == "method,n_points,m,dim,seconds,cost"
    assert text.count("\r\n") == len(lines) == 3
    costs = {row.split(",")[0]: float(row.split(",")[-1]) for row in lines[1:]}
    assert costs["optimal"] <= costs["lcm"] + 1e-9


def test_rates_small(tmp_path):
    out = tmp_path / "rates"
    assert main(["rates", "--dim", "8", "--n-grid", "64,128,256",
                 "--trials", "20", "--projections", "64",
                 "--out", str(out)]) == 0
    assert (out / "rates_qn.csv").exists()


def test_config_equals_form_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 2\nm = 4\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["cvt", f"--config={cfg}", "--out", str(out)]) == 0
    snapshot = json.loads((out / "resolved_config.json").read_text())
    assert (snapshot["dim"], snapshot["m"], snapshot["seed"]) == (2, 4, 3)


def test_config_without_value_is_usage_error(tmp_path, capsys):
    assert main(["cvt", "--dim", "2", "--m", "2", "--out", str(tmp_path / "o"),
                 "--config"]) == 2
    err = capsys.readouterr().err
    assert "--config" in err and "Traceback" not in err


def test_run_error_is_one_line_exit_2(tmp_path, monkeypatch, capsys):
    def abort(*args, **kwargs):
        raise TrainingAborted("non-finite loss at epoch 0 chunk 0 region 1")
    monkeypatch.setattr("tessae.cli.train_twae", abort)
    code = main(["train", "--count", "80", "--n-chunk", "40", "--m", "4",
                 "--epochs", "1", "--hidden", "8", "--projections", "8",
                 "--out", str(tmp_path / "t")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: TrainingAborted: non-finite loss at epoch 0 chunk 0 region 1\n"


@pytest.mark.parametrize("argv,check,result", [
    (["varcheck", "--dim", "2", "--n", "8", "--trials", "1"], "variance_check",
     {"mean_shared": 2.0, "mean_independent": 1.0}),
    (["ineq", "--n-points", "8", "--trials", "1"], "eq19_check",
     {"violations": 1, "margins": np.array([-1.0])}),
], ids=["varcheck", "ineq"])
def test_failed_check_is_one_line_exit_1(tmp_path, monkeypatch, capsys, argv, check, result):
    monkeypatch.setattr(experiments, check, lambda *args, **kwargs: result)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("check failed: ")


def test_memory_error_is_one_line_exit_2(tmp_path, monkeypatch, capsys):
    # `cvt --dim 2 --m 1000000000` fails in numpy's allocator; the stand-in
    # raises the same error without allocating anything
    message = "Unable to allocate 2.91 TiB for an array with shape (200000000000, 2)"

    def exhaust(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr("tessae.cli.lloyd_cvt", exhaust)
    code = main(["cvt", "--dim", "2", "--m", "1000000000", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unusable_out_is_one_line_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["cvt", "--dim", "2", "--m", "3", "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def gap_inputs(tmp_path):
    # 20 regions: run_gap's --count 200 holds exactly --n 10 per region
    save_checkpoint(init_params([2, 8], 2, seed=0), str(tmp_path / "ckpt"))
    tess, _ = lloyd_cvt(2, 20, seed=0)
    (tmp_path / "tess.json").write_text(tess.to_json())
    return tmp_path / "ckpt.json", tmp_path / "tess.json"


def run_gap(tmp_path, *flags):
    return main(["gap", "--checkpoint", str(tmp_path / "ckpt"),
                 "--tessellation", str(tmp_path / "tess.json"), "--count", "200",
                 "--n", "10", "--trials", "2", "--projections", "16",
                 "--out", str(tmp_path / "gap"), *flags])


@pytest.mark.parametrize("key", ["latent_dim", "layer_sizes"])
def test_gap_checkpoint_without_key_is_one_line_exit_2(tmp_path, capsys, key):
    manifest_path, _ = gap_inputs(tmp_path)
    manifest = json.loads(manifest_path.read_text())
    del manifest[key]
    manifest_path.write_text(json.dumps(manifest))
    assert run_gap(tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err


def test_gap_tessellation_without_generators_is_one_line_exit_2(tmp_path, capsys):
    _, tess_path = gap_inputs(tmp_path)
    obj = json.loads(tess_path.read_text())
    del obj["generators"]
    tess_path.write_text(json.dumps(obj))
    assert run_gap(tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'generators'" in err


@pytest.mark.parametrize("edit", ["permuted", "perturbed", "radius-0.5"])
def test_gap_on_a_bad_e8_file_is_one_line_exit_2(tmp_path, capsys, edit):
    gap_inputs(tmp_path)
    obj = json.loads(e8_tessellation().to_json())
    if edit == "permuted":
        obj["generators"][1], obj["generators"][2] = obj["generators"][2], obj["generators"][1]
    elif edit == "perturbed":
        obj["generators"][7][3] += 1e-12
    else:
        obj["generators"] = np.vstack([np.zeros(8), 0.5 * e8_roots() / np.sqrt(2.0)]).tolist()
    (tmp_path / "tess.json").write_text(json.dumps(obj))
    assert run_gap(tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'tess.json'}: tessellation JSON 'kind' is 'E8', "
                          "but its generators give 'CVT'") and err.count("\n") == 1


@pytest.mark.parametrize("which,key,value,needle", [
    ("ckpt", "layer_sizes", ["2", "8"], "'layer_sizes'"),
    ("ckpt", "layer_sizes", [2, True], "'layer_sizes'"),
    ("ckpt", "layer_sizes", 2, "'layer_sizes'"),
    ("ckpt", "latent_dim", "2", "'latent_dim'"),
    ("ckpt", "latent_dim", True, "'latent_dim'"),
    ("ckpt", None, 7, "not a JSON object"),
    ("tess", "dim", "2", "'dim'"),
    ("tess", "dim", True, "'dim'"),
    ("tess", None, 7, "not an object"),
], ids=["layer_sizes-strings", "layer_sizes-bool", "layer_sizes-int", "latent_dim-string",
        "latent_dim-bool", "manifest-int", "dim-string", "dim-bool", "tessellation-int"])
def test_gap_wrong_typed_json_is_one_line_exit_2(tmp_path, capsys, which, key, value, needle):
    path = gap_inputs(tmp_path)[which == "tess"]
    obj = json.loads(path.read_text())
    if key is None:
        obj = value
    else:
        obj[key] = value
    path.write_text(json.dumps(obj))
    assert run_gap(tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("tess_dim,flags,message", [
    (3, [], "tessellation dim 3 does not match encoder latent dim 2"),
    (2, ["--dataset", "ball", "--data-dim", "3"],
     "dataset width 3 does not match encoder input width 2"),
], ids=["tessellation-dim", "dataset-width"])
def test_gap_mismatched_inputs_are_one_line_naming_both_sides(tmp_path, capsys, tess_dim, flags,
                                                               message):
    gap_inputs(tmp_path)
    (tmp_path / "tess.json").write_text(lloyd_cvt(tess_dim, 20, seed=0)[0].to_json())
    assert run_gap(tmp_path, *flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


CVT_FILE = {"dim": 2, "kind": "CVT", "generators": [[0.1, 0.2], [0.3, -0.4]]}


@pytest.mark.parametrize("name,content,flags", [
    ("tess.json", b"{not json", []),
    ("tess.json", json.dumps(dict(CVT_FILE, generators=[[0.1, 0.2], [0.3]])).encode(), []),
    ("tess.json", json.dumps(dict(CVT_FILE, kind="XYZ")).encode(), []),
    ("tess.json", json.dumps({"dim": 0, "kind": "CVT", "generators": [[]]}).encode(), []),
    ("tess.json", json.dumps(dict(CVT_FILE, generators={})).encode(), []),
    ("tess.json", b"\xff\xfe", []),
    ("ckpt.json", b"{not json", []),
    ("ckpt.bin", bytes(16), []),
    ("images.idx", struct.pack(">4i", IDX_IMAGES_MAGIC, 10, 2, 1) + bytes(5),
     ["--dataset", "idx", "--idx-images"]),
    ("run.cfg", b"n = 10\n\xff\n", ["--config"]),
    ("run.cfg", b"config = other.cfg\n", ["--config"]),
], ids=["tess-not-json", "tess-ragged", "tess-kind-XYZ", "tess-no-columns",
        "tess-generators-object", "tess-not-utf8", "ckpt-not-json", "ckpt-truncated-blob",
        "idx-truncated", "cfg-not-utf8", "cfg-nested"])
def test_gap_malformed_file_is_one_line_naming_it_exit_2(tmp_path, capsys, name, content, flags):
    gap_inputs(tmp_path)
    path = tmp_path / name
    path.write_bytes(content)
    assert run_gap(tmp_path, *flags, *([str(path)] if flags else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err, err


@pytest.mark.parametrize("text,line,message", [
    ("# a comment\n\nn = 10\nfrobs = 9\n", 4, "unrecognized arguments: --frobs=9"),
    ("trials = zero\n", 1, "argument --trials: invalid int value: 'zero'"),
], ids=["unknown-key", "bad-value"])
def test_bad_config_line_is_one_line_naming_it_exit_2(tmp_path, capsys, text, line, message):
    gap_inputs(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run_gap(tmp_path, "--config", str(cfg)) == 2
    assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["train", *SMALL_TRAIN, "--epochs", "0"], "argument --epochs: must be >= 1, got 0"),
    (["train", *SMALL_TRAIN, "--n-chunk", "0"], "argument --n-chunk: must be >= 1, got 0"),
    (["train", *SMALL_TRAIN, "--epochs", "1", "--projections", "0"],
     "argument --projections: must be >= 1, got 0"),
    (["cvt", "--dim", "2", "--m", "4", "--max-iters", "0"],
     "argument --max-iters: must be >= 1, got 0"),
    (["gap", "--trials", "0"], "argument --trials: must be >= 1, got 0"),
    (["gap", "--n", "0"], "argument --n: must be >= 1, got 0"),
    (["gap", "--projections", "0"], "argument --projections: must be >= 1, got 0"),
    (["varcheck", "--n", "0"], "argument --n: must be >= 1, got 0"),
    (["varcheck", "--n", "513"], "n must be in [1, 512], got 513"),
    (["ineq", "--trials", "0"], "argument --trials: must be >= 1, got 0"),
    (["train", "--count", "100", "--n-chunk", "200"],
     "dataset of 100 points is smaller than one chunk of 200"),
    (["train", *SMALL_TRAIN, "--hidden", "0"],
     "layer_sizes nonempty with widths >= 1 and latent_dim >= 1 required, got [2, 0] and 2"),
    (["train", *SMALL_TRAIN, "--hidden", "64,-3"],
     "layer_sizes nonempty with widths >= 1 and latent_dim >= 1 required, got [2, 64, -3] and 2"),
    (["train", *SMALL_TRAIN, "--latent-dim", "0"], "argument --latent-dim: must be >= 1, got 0"),
    (["cvt", "--dim", "0", "--m", "4"], "argument --dim: must be >= 1, got 0"),
    (["ineq", "--n-points", "0"], "argument --n-points: must be >= 1, got 0"),
    (["gap", "--count", "400", "--n", "50"],
     "dataset of 400 points is smaller than m*n = 20*50 = 1000"),
    (["ineq", "--n-points", "6"], "--n-points must divide by 8 (m = 2, 4, 8), got 6"),
    (["assign-bench", "--n-points", "1001", "--m", "400"],
     "--n-points 1001 is not a positive multiple of --m 400"),
    (["assign-bench", "--n-points", "0", "--m", "400"],
     "argument --n-points: must be >= 1, got 0"),
    (["train", *SMALL_TRAIN, "--lambda", "-1"], "argument --lambda: must be >= 0, got -1.0"),
    (["train", *SMALL_TRAIN, "--learning-rate", "-1"],
     "argument --learning-rate: must be >= 0, got -1.0"),
    (["train", *SMALL_TRAIN, "--alpha", "nan"], "argument --alpha: must be >= 0, got nan"),
    (["rates", "--n-grid", "32,x"],
     "argument --n-grid: must be comma-separated ints, got '32,x'"),
    (["rates", "--n-grid", ","], "n_grid must be nonempty and lie in [32, 8192], got []"),
    (["rates", "--n-grid", "32"],
     "n_grid needs at least two distinct sizes for a slope, got [32]"),
    (["rates", "--n-grid", "32,32"],
     "n_grid needs at least two distinct sizes for a slope, got [32, 32]"),
    (["train", *SMALL_TRAIN, "--hidden", "64,x"],
     "argument --hidden: must be comma-separated ints, got '64,x'"),
    (["cvt", "--dim", "2", "--m", "3", "--energy-tol", "nan"],
     "argument --energy-tol: must be >= 0, got nan"),
    (["varcheck", "--step-scale", "nan"],
     "argument --step-scale: must be finite, got nan"),
    (["varcheck", "--dim", "0"], "argument --dim: must be >= 1, got 0"),
    (["train", "--count", "-5"], "argument --count: must be >= 1, got -5"),
    (["rates", "--dim", "0"], "argument --dim: must be >= 1, got 0"),
    (["train", *SMALL_TRAIN, "--radius", "nan"], "argument --radius: must be finite, got nan"),
    (["train", *SMALL_TRAIN, "--sigma", "inf"], "argument --sigma: must be finite, got inf"),
    (["train", *SMALL_TRAIN, "--lambda", "inf"], "argument --lambda: must be finite, got inf"),
    (["train", *SMALL_TRAIN, "--learning-rate", "inf"],
     "argument --learning-rate: must be finite, got inf"),
    (["cvt", "--dim", "2", "--m", "3", "--energy-tol", "inf"],
     "argument --energy-tol: must be finite, got inf"),
    (["cvt", "--dim", "2", "--m", "3", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["train", *SMALL_TRAIN, "--dataset", "ball", "--data-dim", "0"],
     "argument --data-dim: must be >= 1, got 0"),
    (["assign-bench", "--dim", "-1"], "argument --dim: must be >= 1, got -1"),
    (["assign-bench", "--dim", "0"], "argument --dim: must be >= 1, got 0"),
    (["train", *SMALL_TRAIN, "--modes", "0"], "argument --modes: must be >= 1, got 0"),
    (["train", *SMALL_TRAIN, "--sigma", "-1"], "argument --sigma: must be > 0, got -1.0"),
], ids=["train-epochs", "train-n-chunk", "train-projections", "cvt-max-iters",
        "gap-trials", "gap-n", "gap-projections", "varcheck-n", "varcheck-n-above-population",
        "ineq-trials", "train-dataset-below-chunk", "train-hidden-0", "train-hidden-negative",
        "train-latent-dim", "cvt-dim", "ineq-n-points", "gap-count-below-m-n",
        "ineq-n-points-not-divisible-by-8", "assign-bench-n-points-not-multiple",
        "assign-bench-n-points-0", "train-lambda-negative", "train-learning-rate-negative",
        "train-alpha-nan", "rates-n-grid-not-int",
        "rates-n-grid-empty", "rates-n-grid-one-size", "rates-n-grid-repeated",
        "train-hidden-not-int", "cvt-energy-tol-nan",
        "varcheck-step-scale-nan", "varcheck-dim-0", "train-count-negative",
        "rates-dim-0", "train-radius-nan", "train-sigma-inf", "train-lambda-inf",
        "train-learning-rate-inf", "cvt-energy-tol-inf", "cvt-seed-negative",
        "train-ball-data-dim-0", "assign-bench-dim-negative", "assign-bench-dim-0",
        "train-modes-0", "train-sigma-negative"])
def test_bad_count_is_one_line_exit_2(tmp_path, capsys, argv, message):
    if argv[0] == "gap":
        gap_inputs(tmp_path)
        code = run_gap(tmp_path, *argv[1:])
    else:
        code = main([*argv, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.rglob("*.csv"))  # rejected before any audit or benchmark


@pytest.mark.parametrize("argv", [
    ["train", *SMALL_TRAIN, "--epochs", "1", "--lambda", "1e308"],
    ["train", *SMALL_TRAIN, "--epochs", "1", "--learning-rate", "1e308"],
    ["varcheck", "--step-scale", "1e308"],
], ids=["train-lambda-1e308", "train-learning-rate-1e308", "varcheck-step-scale-1e308"])
def test_numeric_overflow_is_one_line_exit_2(tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(tmp_path / "o")])
    assert code == 2
    assert not caught
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: FloatingPointError: ")


INT_VALUES = ["-1", "0", "1", "x", "", "1e3"]
FLOAT_VALUES = ["-1", "0", "1", "nan", "inf", "-inf", "1e308", "x"]
SEED_VALUES = INT_VALUES + [str(2**64), str(10**30)]


# subcommand -> (small base flags, int flags, float flags); gap also reads
# the files of gap_files
CONTRACT_GRAMMAR = {
    "cvt": ({"dim": 2, "m": 3, "max-iters": 3},
            ["dim", "m", "mc-samples", "max-iters"], ["energy-tol"]),
    "e8": ({}, [], []),
    "train": ({"count": 80, "n-chunk": 40, "m": 4, "epochs": 1, "hidden": 8,
               "projections": 8},
              ["count", "modes", "data-dim", "m", "n-chunk", "epochs", "latent-dim",
               "projections"],
              ["radius", "sigma", "lambda", "alpha", "learning-rate"]),
    "gap": ({"count": 40, "n": 10, "trials": 2, "projections": 8},
            ["count", "modes", "data-dim", "n", "trials", "projections"],
            ["radius", "sigma"]),
    "rates": ({"dim": 2, "n-grid": "32,64", "trials": 20, "projections": 4},
              ["dim", "n-grid", "trials", "projections"], []),
    "ineq": ({"n-points": 8, "dim": 2, "trials": 1}, ["n-points", "dim", "trials"], []),
    "varcheck": ({"dim": 2, "n": 8, "trials": 100}, ["dim", "n", "trials"], ["step-scale"]),
    "assign-bench": ({"n-points": 8, "m": 2, "dim": 2}, ["n-points", "m", "dim"], []),
}

CONTRACT_CASES = [(command, "seed", SEED_VALUES) for command in CONTRACT_GRAMMAR] + [
    (command, flag, values)
    for command, (_, int_flags, float_flags) in CONTRACT_GRAMMAR.items()
    for flags, values in ((int_flags, INT_VALUES), (float_flags, FLOAT_VALUES))
    for flag in flags]


def run_captured(argv):
    """main's exit code and its stderr, with each warning it raised as a
    `Warning` line of that stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


@pytest.fixture(scope="module")
def gap_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gap_files")
    save_checkpoint(init_params([2, 8], 2, seed=0), str(tmp / "ckpt"))
    (tmp / "tess.json").write_text(lloyd_cvt(2, 4, seed=0)[0].to_json())
    return {"checkpoint": tmp / "ckpt", "tessellation": tmp / "tess.json"}


@seed(17)
@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(CONTRACT_CASES).flatmap(
    lambda case: st.tuples(st.just(case[:2]), st.sampled_from(case[2]))))
def test_one_flag_value_keeps_the_exit_code_contract(gap_files, case):
    """Every subcommand, with one numeric flag set to a bad, edge or good
    value on its small base flags, exits 0, 1 or 2; a failure is one
    `error:` or `check failed:` line, with no traceback and no warning, and
    the value reads the same as `--flag=value` on the command line and as a
    `flag = value` config line, where argparse's refusal also names the
    line.  (`--flag=value`, because argparse reads a separate `-inf` as an
    option.)  Huge ints go only to --seed: no flag has
    an upper cap, so a huge --count, --m or --trials would allocate or loop
    without bound."""
    (command, flag), value = case
    base = {**CONTRACT_GRAMMAR[command][0], **(gap_files if command == "gap" else {})}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/run.cfg"
        with open(cfg, "w") as fh:
            fh.writelines(f"{key} = {val}\n" for key, val in [*base.items(), (flag, value)])
        flag_form = run_captured([command, *(f"--{key}={val}" for key, val in base.items()),
                                  f"--{flag}={value}", "--out", f"{tmp}/flag"])
        config_form = run_captured([command, "--config", cfg, "--out", f"{tmp}/config"])
    code, err = flag_form
    if err.startswith(f"error: argument --{flag}: "):
        assert config_form == (code, err.replace("error: ", f"error: {cfg}:{len(base) + 1}: ", 1))
    else:
        assert config_form == flag_form
    assert code in (0, 1, 2)
    if code:
        assert len(err.splitlines()) == 1, err
        assert err.startswith(("error:", "check failed:")), err
        assert "Traceback" not in err and "Warning" not in err, err
