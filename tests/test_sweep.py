"""Rate-distortion sweep, Pareto selection, budget fitting, file emission."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maecodec import mae, sweep
from maecodec.codec import CODEC_DCT, CODEC_NULL
from maecodec.errors import ContractError, InfeasibleBudgetError


def _point(bpp, ssim, image_id="img", ratio=0.5, quality=50, psnr=30.0):
    return sweep.RDPoint(
        image_id=image_id, mask_ratio=ratio, quality=quality,
        overall_bpp=bpp, payload_bpp=bpp, ssim=ssim, psnr=psnr,
    )


def _sweep_model():
    cfg = mae.TMAEConfig(
        patch_size=8, channels=1, enc_d_model=16, enc_depth=1, enc_heads=2,
        enc_d_ff=16, dec_d_model=8, dec_depth=1, dec_heads=2, dec_d_ff=8,
    )
    return mae.init_model(cfg, seed=0)


def _gray(seed, size=24):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (size, size, 1), dtype=np.uint8)


# -- rd_sweep ------------------------------------------------------------------


def test_sweep_cardinality_one_cell():
    result = sweep.rd_sweep([("a", _gray(0))], [0.5], [60], _sweep_model())
    assert len(result.points) == 1 and not result.failures
    pt = result.points[0]
    assert (pt.image_id, pt.mask_ratio, pt.quality) == ("a", 0.5, 60)


def test_sweep_cross_product_order():
    corpus = [("a", _gray(1)), ("b", _gray(2))]
    result = sweep.rd_sweep(corpus, [0.4, 0.6], [30, 70], _sweep_model())
    assert len(result.points) == 8
    keys = [(p.image_id, p.mask_ratio, p.quality) for p in result.points]
    assert keys == [
        ("a", 0.4, 30), ("a", 0.4, 70), ("a", 0.6, 30), ("a", 0.6, 70),
        ("b", 0.4, 30), ("b", 0.4, 70), ("b", 0.6, 30), ("b", 0.6, 70),
    ]


def test_sweep_lossless_cell_rgb():
    """Nothing masked plus the raw codec: ssim 1, 24 bpp plus headers."""
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    result = sweep.rd_sweep(
        [("rgb", img)], [0.0], [50], model=None, patch_size=8, codec_id=CODEC_NULL
    )
    assert not result.failures
    pt = result.points[0]
    assert pt.ssim == 1.0 and pt.psnr == math.inf
    assert abs(pt.payload_bpp - (24.0 + 8.0 * 19 / 256)) < 1e-12
    assert abs(pt.overall_bpp - (24.0 + 8.0 * (19 + 35) / 256)) < 1e-12


def test_sweep_isolates_per_cell_failures():
    """One bad image must not take down the other cells."""
    corpus = [("tiny", np.zeros((8, 8, 1), dtype=np.uint8)), ("ok", _gray(4))]
    result = sweep.rd_sweep(corpus, [0.5], [50], _sweep_model())
    assert [p.image_id for p in result.points] == ["ok"]
    assert len(result.failures) == 1
    assert result.failures[0].image_id == "tiny"
    assert "ContractError" in result.failures[0].error


def test_sweep_records_a_non_finite_image_as_a_cell_failure():
    bad = _gray(5).astype(np.float64) / 255.0
    bad[3, 4, 0] = np.nan
    corpus = [("nan", bad), ("ok", _gray(6))]
    result = sweep.rd_sweep(corpus, [0.5], [50], _sweep_model())
    assert [p.image_id for p in result.points] == ["ok"]
    assert [(f.image_id, f.error.split(":")[0]) for f in result.failures] == [("nan", "NumericError")]


def test_sweep_propagates_unexpected_errors(monkeypatch):
    """Only the package's own error types are per-cell failures; bugs surface."""

    def broken_decompress(container, model):
        raise TypeError("bug in the receiver")

    monkeypatch.setattr(sweep, "decompress", broken_decompress)
    with pytest.raises(TypeError, match="bug in the receiver"):
        sweep.rd_sweep([("a", _gray(8))], [0.5], [50], _sweep_model())


def test_sweep_requires_nonempty_inputs_and_patch_size():
    model = _sweep_model()
    with pytest.raises(ContractError):
        sweep.rd_sweep([], [0.5], [50], model)
    with pytest.raises(ContractError):
        sweep.rd_sweep([("a", _gray(5))], [], [50], model)
    with pytest.raises(ContractError):
        sweep.rd_sweep([("a", _gray(5))], [0.5], [], model)
    with pytest.raises(ContractError):
        sweep.rd_sweep([("a", _gray(5))], [0.5], [50], model=None)


@pytest.mark.parametrize("bad_id", ["a,b", "a\nb", "a\rb", "mean"])
def test_sweep_rejects_ids_the_csv_cannot_hold(bad_id, monkeypatch):
    """Raised before the first cell, not when the written CSV is read back."""
    cells = []
    monkeypatch.setattr(sweep, "compress", lambda *args: cells.append(args))
    corpus = [("ok", _gray(9)), (bad_id, _gray(10))]
    with pytest.raises(ContractError, match="image id"):
        sweep.rd_sweep(corpus, [0.5], [50], _sweep_model())
    assert cells == []


def test_sweep_ids_round_trip_through_csv(tmp_path):
    corpus = [("mean2", _gray(11)), ("a b;c", _gray(12))]
    result = sweep.rd_sweep(corpus, [0.5], [50], _sweep_model())
    path = tmp_path / "ids.csv"
    sweep.write_csv(result.points + sweep.corpus_mean(result.points), path)
    ids = [p.image_id for p in sweep.read_csv(path)]
    assert ids == ["mean2", "a b;c", sweep.MEAN_ID]


def test_sweep_deterministic_csv_bytes(tmp_path):
    corpus = [("a", _gray(6)), ("b", _gray(7))]
    model = _sweep_model()
    blobs = []
    for name in ("one.csv", "two.csv"):
        result = sweep.rd_sweep(corpus, [0.5, 0.7], [40, 80], model)
        pts = result.points + sweep.corpus_mean(result.points)
        path = tmp_path / name
        sweep.write_csv(pts, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


# -- corpus_mean ---------------------------------------------------------------


def test_corpus_mean_hand_values():
    pts = [
        _point(1.0, 0.5, "a", ratio=0.5, quality=50, psnr=20.0),
        _point(3.0, 0.7, "b", ratio=0.5, quality=50, psnr=40.0),
        _point(2.0, 0.9, "a", ratio=0.7, quality=50, psnr=30.0),
    ]
    means = sweep.corpus_mean(pts)
    assert [m.image_id for m in means] == ["mean", "mean"]
    assert (means[0].mask_ratio, means[0].quality) == (0.5, 50)
    assert means[0].overall_bpp == 2.0 and means[0].ssim == pytest.approx(0.6)
    assert means[0].psnr == 30.0
    assert means[1].overall_bpp == 2.0 and means[1].ssim == 0.9


# -- pareto_front --------------------------------------------------------------


def test_pareto_drops_dominated_point():
    pts = [_point(0.2, 0.30, "a"), _point(0.3, 0.50, "b"), _point(0.25, 0.28, "c")]
    front = sweep.pareto_front(pts)
    assert [(p.overall_bpp, p.ssim) for p in front] == [(0.2, 0.30), (0.3, 0.50)]


def test_pareto_single_point():
    pts = [_point(1.0, 0.5)]
    assert sweep.pareto_front(pts) == pts


def test_pareto_duplicates_keep_first_by_image_id():
    pts = [_point(1.0, 0.5, "zeta"), _point(1.0, 0.5, "alpha")]
    front = sweep.pareto_front(pts)
    assert len(front) == 1 and front[0].image_id == "alpha"


def test_pareto_sorted_with_strictly_increasing_ssim():
    rng = np.random.default_rng(8)
    pts = [_point(float(b), float(s), f"p{i}")
           for i, (b, s) in enumerate(rng.random((100, 2)))]
    front = sweep.pareto_front(pts)
    bpps = [p.overall_bpp for p in front]
    ssims = [p.ssim for p in front]
    assert bpps == sorted(bpps)
    assert all(x < y for x, y in zip(ssims, ssims[1:]))


def _brute_force_front(pts):
    """O(n^2) dominance scan; the definition, straight from the glossary."""
    survivors = set()
    for p in pts:
        dominated = any(
            q.overall_bpp <= p.overall_bpp and q.ssim >= p.ssim
            and (q.overall_bpp < p.overall_bpp or q.ssim > p.ssim)
            for q in pts
        )
        if not dominated:
            survivors.add((p.overall_bpp, p.ssim))
    return survivors


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_pareto_matches_brute_force_property(raw):
    pts = [_point(b / 10.0, s / 50.0, f"p{i}") for i, (b, s) in enumerate(raw)]
    front = sweep.pareto_front(pts)
    assert {(p.overall_bpp, p.ssim) for p in front} == _brute_force_front(pts)


def test_pareto_matches_brute_force_n1000():
    rng = np.random.default_rng(9)
    coords = rng.random((1000, 2))
    pts = [_point(float(b), float(s), f"p{i}") for i, (b, s) in enumerate(coords)]
    front = sweep.pareto_front(pts)

    bpp = coords[:, 0][:, None]
    ssim = coords[:, 1][:, None]
    dominated = (
        (bpp.T <= bpp) & (ssim.T >= ssim) & ((bpp.T < bpp) | (ssim.T > ssim))
    ).any(axis=1)
    expected = {(float(b), float(s)) for (b, s), d in zip(coords, dominated) if not d}
    assert {(p.overall_bpp, p.ssim) for p in front} == expected


# -- budget selector -----------------------------------------------------------


def _calibration():
    return [
        _point(0.10, 0.20, ratio=0.9, quality=10),
        _point(0.25, 0.45, ratio=0.8, quality=30),
        _point(0.50, 0.60, ratio=0.7, quality=50),
        _point(1.20, 0.80, ratio=0.5, quality=80),
    ]


def test_budget_ceiling_example():
    """100000 bits over 768x512 pixels caps the rate at ~0.2543 bpp."""
    assert abs(100_000 / (768 * 512) - 0.2543) < 1e-4
    config = sweep.select_config_for_budget(100_000, 768, 512, _calibration())
    # feasible: 0.10 and 0.25 bpp; best ssim among them is the 0.25 point
    assert config.mask_ratio == 0.8 and config.codec.quality == 30


def test_budget_unconstrained_takes_max_ssim():
    config = sweep.select_config_for_budget(10**9, 768, 512, _calibration())
    assert config.mask_ratio == 0.5 and config.codec.quality == 80


def test_budget_infeasible_reports_minimum():
    w, h = 768, 512
    with pytest.raises(InfeasibleBudgetError) as exc_info:
        sweep.select_config_for_budget(1000, w, h, _calibration())
    err = exc_info.value
    assert err.min_bits == math.ceil(0.10 * w * h)
    assert "1000" in str(err)


def test_budget_config_keeps_pipeline_defaults():
    config = sweep.select_config_for_budget(10**9, 768, 512, _calibration())
    assert (config.patch_size, config.seed, config.codec.codec_id) == (16, 0, CODEC_DCT)


def test_budget_tie_prefers_cheaper_point():
    cal = [_point(0.2, 0.5, ratio=0.8, quality=20), _point(0.4, 0.5, ratio=0.6, quality=40)]
    config = sweep.select_config_for_budget(10**9, 100, 100, cal)
    assert config.codec.quality == 20


def test_budget_validation():
    with pytest.raises(ContractError):
        sweep.select_config_for_budget(1000, 10, 10, [])
    with pytest.raises(ContractError):
        sweep.select_config_for_budget(0, 10, 10, _calibration())
    with pytest.raises(ContractError):
        sweep.select_config_for_budget(1000, 0, 10, _calibration())


@given(
    bpps=st.lists(st.integers(1, 400), min_size=1, max_size=20, unique=True),
    budget=st.integers(min_value=1, max_value=2_000_000),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_budget_never_exceeded_property(bpps, budget, seed):
    rng = np.random.default_rng(seed)
    cal = [
        _point(b / 100.0, float(rng.random()), ratio=0.5, quality=q + 1)
        for q, b in enumerate(bpps)
    ]
    by_quality = {p.quality: p for p in cal}
    w, h = 768, 512
    try:
        config = sweep.select_config_for_budget(budget, w, h, cal)
    except InfeasibleBudgetError as err:
        assert err.min_bits > budget
        return
    chosen = by_quality[config.codec.quality]
    ceiling = budget / (w * h)
    assert chosen.overall_bpp <= ceiling
    feasible = [p for p in cal if p.overall_bpp <= ceiling]
    assert chosen.ssim == max(p.ssim for p in feasible)


# -- file formats --------------------------------------------------------------


def test_csv_round_trip_and_byte_stability(tmp_path):
    pts = [
        _point(1.234567891, 0.87654321, "kodim01", ratio=0.67, quality=85, psnr=33.25),
        _point(0.5, 0.5, "mean", ratio=0.5, quality=50, psnr=28.0),
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep.write_csv(pts, p1)
    sweep.write_csv(pts, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text(encoding="utf-8")
    assert text.startswith(sweep.CSV_HEADER + "\n")
    assert "\r" not in text
    assert "kodim01,0.67,85,1.234568,1.234568,0.876543,33.250000" in text

    back = sweep.read_csv(p1)
    assert [p.image_id for p in back] == ["kodim01", "mean"]
    assert back[0].quality == 85
    assert abs(back[0].overall_bpp - 1.234568) < 1e-12


def test_read_csv_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("nope\n", encoding="utf-8")
    with pytest.raises(ContractError):
        sweep.read_csv(bad_header)
    bad_fields = tmp_path / "f.csv"
    bad_fields.write_text(sweep.CSV_HEADER + "\na,b,c\n", encoding="utf-8")
    with pytest.raises(ContractError):
        sweep.read_csv(bad_fields)
    # a non-numeric float or int field is named by file and line
    good = "img,0.5,50,1.0,0.9,0.8,30.0"
    for bad in ("img,x,50,1.0,0.9,0.8,30.0", "img,0.5,x,1.0,0.9,0.8,30.0"):
        bad_value = tmp_path / "v.csv"
        bad_value.write_text(f"{sweep.CSV_HEADER}\n{good}\n{bad}\n", encoding="utf-8")
        with pytest.raises(ContractError, match=re.escape(f"{bad_value}:3: ") + ".*'x'"):
            sweep.read_csv(bad_value)


def test_write_curve_dat_sorted_two_columns(tmp_path):
    pts = [_point(2.0, 0.9), _point(1.0, 0.4), _point(1.5, 0.6)]
    path = tmp_path / "curve.dat"
    sweep.write_curve_dat(pts, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["1.000000 0.400000", "1.500000 0.600000", "2.000000 0.900000"]


def test_group_by_ratio():
    pts = [_point(1.0, 0.5, ratio=0.5), _point(2.0, 0.6, ratio=0.7), _point(3.0, 0.7, ratio=0.5)]
    groups = sweep.group_by_ratio(pts)
    assert set(groups) == {0.5, 0.7}
    assert [p.overall_bpp for p in groups[0.5]] == [1.0, 3.0]
