"""End-to-end acceptance checks.

Each test verifies one release gate and prints a single PASS/FAIL line
(bypassing capture, so the lines show in normal pytest runs).  Tolerances
are part of the gate and stated in each line.
"""

import time
from pathlib import Path

import numpy as np

from peftlab.autodiff import cross_entropy_logits, finite_diff_check
from peftlab.dataio import (
    CheckpointFormatError,
    ConfigParseError,
    format_config,
    load_checkpoint,
    parse_config,
    save_checkpoint,
)
from peftlab.peft import (
    METHODS,
    MethodSpec,
    attach,
    combine,
    count_trainable,
    merge_model,
)
from peftlab.spectral import effective_rank, svd, verify_singular_item_identity
from peftlab.train import (
    SyntheticTaskSpec,
    TrainingConfig,
    linear_probe,
    make_synthetic_task,
    pretrain_backbone,
    train,
)
from peftlab.vit import ViTConfig, forward, init_model


def announce(capsys, ok: bool, label: str, detail: str):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def toy_model(config, seed=0):
    model = init_model(config, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 100)
    model.slot("head").w.data[:] = rng.normal(0.0, 0.1, model.slot("head").w.shape)
    return model


TOY_D32 = ViTConfig(image_h=8, image_w=8, channels=1, patch=4,
                    dim=32, layers=4, heads=4, classes=4)
TOY_D16 = ViTConfig(image_h=8, image_w=8, channels=1, patch=4,
                    dim=16, layers=2, heads=2, classes=4)


def test_01_merge_equivalence(capsys):
    start = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(0)
    images = [rng.normal(size=(8, 8, 1)) for _ in range(100)]
    for method in ("rlrr", "ssf", "lora"):
        pm = attach(
            MethodSpec(method=method, init="normal", init_scale=0.05),
            toy_model(TOY_D32), seed=1,
        )
        merged = merge_model(pm)
        for img in images:
            dev = np.abs(pm.forward(img).data - forward(img, merged).data).max()
            worst = max(worst, dev)
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 60
    announce(capsys, ok, "merge equivalence",
             f"max |merged - unmerged| = {worst:.2e} over 100 inputs x 3 methods "
             f"(< 1e-10), {elapsed:.1f}s")
    assert ok


def test_02_singular_item_identity(capsys):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 17))
        w = rng.normal(size=(m, n))
        dev = verify_singular_item_identity(w, rng.normal(size=m), rng.normal(size=n))
        worst = max(worst, dev)
    scalar_dev = verify_singular_item_identity(
        np.array([[2.0]]), np.array([3.0]), np.array([4.0])
    )
    ok = worst < 1e-8 and scalar_dev < 1e-12
    announce(capsys, ok, "rescaled singular-item identity",
             f"max deviation = {worst:.2e} over 100 instances (< 1e-8), "
             f"scalar case = {scalar_dev:.2e}")
    assert ok


def test_03_identity_at_init(capsys):
    start = time.monotonic()
    base = toy_model(TOY_D16)
    rng = np.random.default_rng(2)
    images = [rng.normal(size=(8, 8, 1)) for _ in range(3)]
    reference = [forward(img, base).data.copy() for img in images]
    bad = []
    for method in METHODS:
        spec = MethodSpec(method=method, prompts=0 if method.startswith("vpt") else 4)
        pm = attach(spec, toy_model(TOY_D16), seed=3)
        for img, ref in zip(images, reference):
            if not np.array_equal(pm.forward(img).data, ref):
                bad.append(method)
                break
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 10
    announce(capsys, ok, "identity at init",
             f"{len(METHODS) - len(bad)}/{len(METHODS)} methods bitwise-identical to "
             f"frozen model{', failing: ' + ','.join(bad) if bad else ''}, {elapsed:.1f}s")
    assert ok


def test_04_gradient_correctness(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(4)
    image = rng.normal(size=(8, 8, 1))
    worst = 0.0
    worst_name = ""
    for method in METHODS:
        spec = MethodSpec(method=method, rank=2, bottleneck=2, prompts=2)
        pm = attach(spec, toy_model(TOY_D16, seed=7), seed=5)
        for t in pm.method_tensors().values():
            t.data[:] = rng.normal(0.0, 0.1, t.shape)

        def loss():
            return cross_entropy_logits(pm.forward(image), 1)

        # step balances two regimes: prompt tokens want small h (truncation),
        # attention scale vectors with near-floor gradients want large h
        # (roundoff noise shrinks as 1/h)
        report = finite_diff_check(loss, pm.method_tensors(), h=3e-4, tol=1e-4)
        if report.max_rel_err > worst:
            worst = report.max_rel_err
            worst_name = f"{method}: " + max(
                report.entries, key=lambda k: report.entries[k]["max_rel_err"]
            )
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 120
    announce(capsys, ok, "gradient correctness",
             f"max rel err = {worst:.2e} across all method parameters "
             f"(< 1e-4, worst {worst_name}), {elapsed:.1f}s")
    assert ok


def test_05_parameter_counts(capsys):
    # closed forms vs live-tensor enumeration on a spread of configurations
    geometries = [TOY_D16, ViTConfig(image_h=8, image_w=8, channels=1, patch=4,
                                     dim=32, layers=3, heads=4, classes=5)]
    specs = [
        MethodSpec(method="rlrr"),
        MethodSpec(method="rankr_rlrr", rank=2),
        MethodSpec(method="rlrr_no_residual", rank=2),
        MethodSpec(method="lora", rank=2),
        MethodSpec(method="ssf"),
        MethodSpec(method="adapter", bottleneck=2),
        MethodSpec(method="adapter", bottleneck=2, adapter_positions=("ffn",)),
        MethodSpec(method="vpt_shallow", prompts=3),
        MethodSpec(method="vpt_deep", prompts=3),
        MethodSpec(method="rlrr", layer_range=(0, 1)),
    ]
    checked = 0
    mismatches = []
    for config in geometries:
        for spec in specs:
            report = count_trainable(spec, config)
            pm = attach(spec, init_model(config, seed=0), seed=0)
            enumerated = sum(t.numel() for t in pm.method_tensors().values())
            checked += 1
            if report.backbone_total != enumerated:
                mismatches.append((spec.method, report.backbone_total, enumerated))

    vitb = ViTConfig(image_h=224, image_w=224, channels=3, patch=16,
                     dim=768, layers=12, heads=12, classes=100)
    vitb_report = count_trainable(MethodSpec(method="rlrr"), vitb)
    backbone = vitb_report.backbone_total
    head = vitb_report.head_params
    ok = not mismatches and checked >= 10 and backbone == 287_232
    announce(capsys, ok, "parameter counts",
             f"{checked} configs closed-form == enumeration, base-geometry dual-scaling "
             f"backbone = {backbone} (expect 287,232)")
    with capsys.disabled():
        # itemization of the gap to the commonly reported 0.33 M total:
        # that figure rounds backbone + per-task classification head
        print(f"       backbone {backbone:,} + example 100-class head {head:,} "
              f"= {backbone + head:,}")
        print(f"       0.33 M - backbone = {330_000 - backbone:,} "
              f"~= one (dim+1) x classes head with ~55 classes "
              f"({(330_000 - backbone) / (768 + 1):.1f} classes), i.e. the gap is "
              "per-task head size plus rounding to two decimals")
    assert ok


def _gram_eigenvalues_oracle(w):
    """Eigenvalues of the smaller Gram matrix, independent of the SVD code.

    Characteristic polynomial via Faddeev-LeVerrier, roots as starting
    points, then Newton polishing (step 1/trace((G - lam I)^-1)), which
    repairs the poor conditioning of polynomial root finding.  Spurious
    complex-conjugate pairs straddle two nearby real roots, so each pair
    is spread by its imaginary part to give two distinct starts.
    """
    m, n = w.shape
    g = w @ w.T if m <= n else w.T @ w
    k = g.shape[0]
    coeffs = np.zeros(k + 1)
    coeffs[0] = 1.0
    acc = np.eye(k)
    for i in range(1, k + 1):
        acc = g @ acc
        coeffs[i] = -np.trace(acc) / i
        acc += coeffs[i] * np.eye(k)
    roots = np.roots(coeffs)
    starts = np.clip(roots.real + roots.imag, 0.0, None)
    eye = np.eye(k)
    polished = []
    for lam in starts:
        for _ in range(60):
            try:
                tr = np.trace(np.linalg.inv(g - lam * eye))
            except np.linalg.LinAlgError:
                break
            if tr == 0.0:
                break
            step = 1.0 / tr
            lam += step
            if abs(step) < 1e-14 * max(1.0, abs(lam)):
                break
        polished.append(max(lam, 0.0))
    return np.sort(polished)[::-1]


def test_06_svd_suite(capsys):
    rng = np.random.default_rng(6)
    worst_recon = 0.0
    worst_ortho = 0.0
    worst_eig = 0.0
    ordered = True
    for _ in range(1000):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 17))
        w = rng.normal(size=(m, n))
        fact = svd(w)
        k = min(m, n)
        scale = max(np.linalg.norm(w), 1e-30)
        worst_recon = max(worst_recon, np.linalg.norm((fact.U * fact.sigma) @ fact.V.T - w) / scale)
        worst_ortho = max(
            worst_ortho,
            np.abs(fact.U.T @ fact.U - np.eye(k)).max(),
            np.abs(fact.V.T @ fact.V - np.eye(k)).max(),
        )
        ordered = ordered and (np.diff(fact.sigma) <= 1e-12).all() and (fact.sigma >= 0).all()
        eig = _gram_eigenvalues_oracle(w)
        worst_eig = max(worst_eig, np.abs(eig - fact.sigma**2).max())
    ok = worst_recon < 1e-8 and worst_ortho < 1e-8 and ordered and worst_eig < 1e-8
    announce(capsys, ok, "svd suite (1000 matrices <= 16x16)",
             f"recon rel {worst_recon:.2e}, orthogonality {worst_ortho:.2e}, "
             f"ordering {'ok' if ordered else 'BROKEN'}, "
             f"sigma^2 vs eigen-oracle {worst_eig:.2e} (all < 1e-8)")
    assert ok


def test_07_rank_invariants(capsys):
    rng = np.random.default_rng(7)
    violations = 0
    trials = 0
    for _ in range(50):
        d = int(rng.integers(4, 13))
        r = int(rng.integers(1, min(4, d) + 1))
        lora_delta = rng.normal(size=(d, r)) @ rng.normal(size=(r, d))
        scale = rng.normal(size=(d, r)) @ rng.normal(size=(r, d))
        trials += 2
        violations += effective_rank(lora_delta) > r
        violations += effective_rank(scale) > r
    ok = violations == 0
    announce(capsys, ok, "rank invariants",
             f"{trials} randomized low-rank deltas, {violations} rank-bound violations")
    assert ok


def small_training_setup():
    spec = SyntheticTaskSpec(seed=0, classes=3, images_per_class=8,
                             val_per_class=2, test_per_class=2, noise=0.35,
                             shift_mix=0.0, shift_gain=0.0, downstream_noise=None)
    return make_synthetic_task(spec)


def test_08_frozen_immutability(capsys):
    pm = attach(MethodSpec(method="rlrr"), toy_model(TOY_D16), seed=8)
    frozen_before = {
        name: t.data.copy()
        for name, t in pm.base.named_tensors().items()
        if not t.requires_grad
    }
    cfg = TrainingConfig(learning_rate=0.01, epochs=200, warmup_epochs=2,
                         batch_size=4, seed=8, precision="f64", max_steps=500)
    train(pm, small_training_setup(), cfg)
    changed = [
        name for name, old in frozen_before.items()
        if not np.array_equal(pm.base.named_tensors()[name].data, old)
    ]
    ok = not changed
    announce(capsys, ok, "frozen immutability",
             f"{len(frozen_before)} frozen tensors bitwise-unchanged after 500 steps"
             f"{'' if ok else ', changed: ' + ','.join(changed)}")
    assert ok


# golden metrics from the first verified run of this exact seeded pipeline; the
# adapted golden was 0.9375 while the default init held both factors at 0
GOLDEN_PROBE_ACC = 0.875
GOLDEN_ADAPT_ACC = 0.953125


def test_09_adaptation_smoke(capsys):
    start = time.monotonic()
    vc = ViTConfig(image_h=8, image_w=8, channels=1, patch=4,
                   dim=64, layers=2, heads=4, classes=8)
    task_spec = SyntheticTaskSpec(seed=11, classes=8, images_per_class=24, noise=0.6,
                                  shift_mix=0.8, shift_gain=0.9, downstream_noise=0.8)
    pre_cfg = TrainingConfig(learning_rate=0.003, epochs=12, warmup_epochs=2,
                             batch_size=16, seed=0)
    model = pretrain_backbone(vc, make_synthetic_task(task_spec, downstream=False), pre_cfg)
    down = make_synthetic_task(task_spec, downstream=True)
    ft_cfg = TrainingConfig(learning_rate=0.01, epochs=20, warmup_epochs=2,
                            batch_size=16, seed=1, max_steps=500)

    probe_acc = max(r["val_acc"] for r in linear_probe(model.copy(), down, ft_cfg))
    pm = attach(MethodSpec(method="rlrr"), model.copy(), seed=2)
    adapt_acc = max(r["val_acc"] for r in train(pm, down, ft_cfg))

    full_params = sum(t.numel() for t in model.named_tensors().values())
    adapt_params = sum(t.numel() for t in pm.trainable().values())
    ratio = adapt_params / full_params
    elapsed = time.monotonic() - start

    ok = (
        adapt_acc >= probe_acc + 0.05
        and ratio <= 0.05
        and probe_acc == GOLDEN_PROBE_ACC
        and adapt_acc == GOLDEN_ADAPT_ACC
        and elapsed < 300
    )
    announce(capsys, ok, "seeded adaptation smoke test",
             f"dual-scaling val {adapt_acc:.4f} vs probe {probe_acc:.4f} "
             f"(need +0.05; golden {GOLDEN_ADAPT_ACC}/{GOLDEN_PROBE_ACC}), "
             f"trainable ratio {ratio:.3f} (<= 0.05), {elapsed:.0f}s")
    assert ok


def test_10_combination(capsys):
    rng = np.random.default_rng(10)
    adapters = [attach(MethodSpec(method="rlrr"), toy_model(TOY_D16)) for _ in range(4)]
    for pm in adapters:
        for t in pm.trainable().values():
            t.data[...] = rng.normal(size=t.shape)
    one_hot = combine(adapters, [0.0, 0.0, 1.0, 0.0], mode="weighted")
    picked = adapters[2].trainable()
    exact = all(np.array_equal(t.data, picked[name].data)
                for name, t in one_hot.trainable().items())
    stacked = combine(adapters, [1.0] * 4, mode="sum_of_products")
    assert (stacked.spec.method, stacked.spec.rank) == ("rankr_rlrr", 4)
    dev = 0.0
    for key, p in stacked.params.items():
        if "S_left" in p:
            dense = sum(pm.params[key]["S_left"].data @ pm.params[key]["S_right"].data
                        for pm in adapters)
            dev = max(dev, np.abs(p["S_left"].data @ p["S_right"].data - dense).max())
    ok = exact and dev < 1e-10
    announce(capsys, ok, "adapter combination",
             f"one-hot exact: {exact}; sum-of-products vs dense rank-4 oracle "
             f"{dev:.2e} (< 1e-10)")
    assert ok


def test_11_checkpoint_and_config(capsys, tmp_path):
    path = str(tmp_path / "t.ckpt")
    rng = np.random.default_rng(11)
    tensors = {
        "w": rng.normal(size=(5, 3)),
        "b": rng.normal(size=3).astype(np.float32),
    }
    save_checkpoint(tensors, path)
    loaded = load_checkpoint(path)
    roundtrip = all(
        tensors[k].tobytes() == loaded[k].tobytes() and tensors[k].dtype == loaded[k].dtype
        for k in tensors
    )

    cfg = parse_config("dim = 24\nmethod = lora\nrank = 2\n")
    text = format_config(cfg)
    fixpoint = format_config(parse_config(text)) == text

    raw = Path(path).read_bytes()
    corrupt_paths = 0
    Path(path).write_bytes(raw[: len(raw) // 2])
    try:
        load_checkpoint(path)
    except CheckpointFormatError:
        corrupt_paths += 1
    Path(path).write_bytes(b"XXXXXXXX" + raw[8:])
    try:
        load_checkpoint(path)
    except CheckpointFormatError:
        corrupt_paths += 1
    try:
        parse_config("dim = not_a_number\n")
    except ConfigParseError:
        corrupt_paths += 1

    ok = roundtrip and fixpoint and corrupt_paths == 3
    announce(capsys, ok, "durable formats",
             f"checkpoint roundtrip bitwise: {roundtrip}; config fixpoint: {fixpoint}; "
             f"{corrupt_paths}/3 corruption paths raise")
    assert ok
