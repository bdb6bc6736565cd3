"""Acceptance suite: one test per criterion, run at the contractual
bounds with a pass/fail line printed for each."""

import hashlib
import time

from langrec.campaigns import (
    run_canonicity,
    run_cor9,
    run_laws,
    run_lemmas,
    run_prop2,
    run_thm4,
    run_thm8,
    run_thm10,
    run_thm11,
)


def _digest(report) -> str:
    return hashlib.sha256(report.json_lines().encode("utf-8")).hexdigest()


def _finish(name: str, budget_s: float, started: float, report) -> None:
    elapsed = time.time() - started
    summary = report.summary()
    status = "PASS" if summary["ok"] else "FAIL"
    print(
        f"ACCEPTANCE {name}: {status} "
        f"({summary['passed']} passed, {summary['failed']} failed, "
        f"{summary['skipped']} skipped, {elapsed:.1f}s / budget {budget_s:.0f}s)"
    )
    if not summary["ok"]:
        for inst in report.instances:
            if inst.get("status") == "fail":
                print("  FAILING INSTANCE:", inst)
    assert summary["ok"], f"{name}: {summary}"
    assert elapsed <= budget_s, f"{name} exceeded its time budget: {elapsed:.1f}s"


def test_criterion_1_unary_recognition():
    started = time.time()
    report = run_prop2(seed=101, samples=50, max_monoid=3)
    _finish("1 unary-existential-recognition", 60, started, report)
    assert _digest(report) == (
        "c64c65a72aae2cf40fd710eb6e089856ea94fcf504bbaecdbf3e6b034e260215"
    )


def test_criterion_2_algebraic_laws():
    started = time.time()
    report = run_laws(seed=102)
    _finish("2 product-algebraic-laws", 20, started, report)
    assert _digest(report) == (
        "37b350430b01e0c529071b29cdf87f0505cd3c82eb2cdf67f2fcbc44203352c4"
    )


def test_criterion_3_unary_product_languages():
    started = time.time()
    report = run_thm4(seed=103, size3_samples=10)
    _finish("3 unary-product-language-class", 600, started, report)
    assert _digest(report) == (
        "9a5197d64c05a81f8afcd611c3f357269c9f15320ab3c1054dc5db6c1ae77f10"
    )


def test_criterion_4_binary_product_and_concatenation():
    started = time.time()
    global_report = run_thm8(seed=104, pairs=20, max_monoid=3)
    local_report = run_thm10(seed=104, pairs=20, max_monoid=3)
    concat_report = run_cor9(seed=104, pairs=20, max_monoid=3)
    elapsed = time.time() - started
    merged_ok = global_report.ok and local_report.ok and concat_report.ok
    print(
        f"ACCEPTANCE 4 binary-product-concatenation: "
        f"{'PASS' if merged_ok else 'FAIL'} "
        f"(global {global_report.summary()['passed']}/20, "
        f"local {local_report.summary()['passed']}/20, "
        f"concat {concat_report.summary()['passed']}/20, {elapsed:.1f}s / budget 300s)"
    )
    for rep in (global_report, local_report, concat_report):
        for inst in rep.instances:
            if inst.get("status") == "fail":
                print("  FAILING INSTANCE:", inst)
    assert merged_ok
    assert elapsed <= 300
    assert _digest(global_report) == (
        "ddf395a73a00cfd06d562b69d0c4432b58bccc4eef1c8fcd2426e7eea3423ab4"
    )
    assert _digest(local_report) == (
        "5357aca990b192712acbf0de4437f0e7f08baa96feec97721b3970771a411ce2"
    )
    assert _digest(concat_report) == (
        "8d9a3aa4a3579cc4fe7760f38a1d54e8716a64df4a9378129ac5adf4d5469347"
    )


def test_criterion_5_equation_characterisation():
    started = time.time()
    report = run_thm11(seed=105, instances=100, max_joint=6)
    summary = report.summary()
    disagreements = [
        inst for inst in report.instances if inst.get("agree") is False
    ]
    for inst in disagreements:
        print("  DISAGREEMENT (falsifies the finite-resolution reduction):", inst)
    _finish("5 equation-membership-agreement", 600, started, report)
    assert summary["total"] - summary["skipped"] >= 100
    assert _digest(report) == (
        "b83f4eb6b1b04a0fc01afe6f4e239977e7fd6103886bc62e56600dd7eac5246c"
    )


def test_criterion_6_lemma_suite():
    started = time.time()
    report = run_lemmas(seed=106, max_len=5, witness_samples=100)
    _finish("6 lemma-suite", 120, started, report)
    assert _digest(report) == (
        "86876e229224926ba8a1d01ead769dd5ea395625d0948cbcfc42bf88e2769f9f"
    )


def test_criterion_7_substrate_canonicity():
    started = time.time()
    report = run_canonicity(seed=107, samples=1000)
    _finish("7 substrate-canonicity", 10, started, report)
    assert _digest(report) == (
        "9f7b7a9d35e20b09459377a14eeea9eada6b04aab8c5f4643ae568d42c97a577"
    )
