"""Byte-for-byte golden outputs of the command-line interface.

GOLDEN below is the only list of pinned runs: each entry names a file under
tests/golden/ and the arguments that write it.  The test reruns every entry
and compares the output with the file byte for byte, so a change that moves
any printed bit must regenerate the files on purpose:

    PYTHONPATH=src python tests/test_golden.py

To see how far a change moves them first, without touching tests/golden/:

    PYTHONPATH=src python tests/test_golden.py --drift

writes every run to a temporary directory and prints, per file, how many
printed numbers differ from the golden one and the largest absolute and
relative drift among them.

The goldens are pinned on the machine that wrote them.  numpy links an
OpenBLAS built with DYNAMIC_ARCH, which picks its matrix kernels by CPU
model, so on other hardware the level-2 entries may differ in the last bits.
"""

import argparse
import re
import tempfile
from pathlib import Path

import pytest

from weierpath.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
D3_FLAGS = ["--b", "2", "--a", "18/25", "--b", "3", "--a", "3/5", "--b", "5", "--a", "1/2"]

GOLDEN = (
    ("eval_b2.csv", ["eval", "--b", "2", "--a", "18/25", "--N", "6", "--grid-step", "1/128"]),
    ("lift_N8.json", ["lift", "--figure-params", "--N", "8", "--s", "3/40", "--t", "31/40"]),
    ("lift_N20_big_den.json", ["lift", "--figure-params", "--N", "20",
                               "--s", "123457/1048573", "--t", "900001/1048573"]),
    # lcm denominator 2,097,143 > 2^20: the scalar feature branch, truncated and limit
    ("lift_N20_scalar.json", ["lift", "--figure-params", "--N", "20",
                              "--s", "123457/2097143", "--t", "900001/2097143"]),
    ("lift_tol.json", ["lift", "--figure-params", "--tol", "1e-7", "--eps-prime", "0.1"]),
    ("lift_tol_scalar.json", ["lift", "--figure-params", "--tol", "1e-7", "--eps-prime", "0.1",
                              "--s", "123457/2097143", "--t", "900001/2097143"]),
    ("lift_sin_N8.json", ["lift", "--figure-params", "--phase", "sin", "--N", "8",
                          "--s", "3/40", "--t", "31/40"]),
    ("norms.json", ["norms", "--figure-params", "--alpha", "0.46", "--N", "8", "--depth", "6"]),
    ("converge.csv", ["converge", "--figure-params", "--Ns", "4,6,8", "--depth", "6"]),
    # depth 12 > FULL_SWEEP_DEPTH: the subsampled sweep (stride pairs plus the
    # fine separation band), with every supSecondEntries value
    ("converge_depth12.json", ["converge", "--figure-params", "--Ns", "4,6,8", "--depth", "12",
                               "--json"]),
    ("norms_depth12.json", ["norms", "--figure-params", "--alpha", "0.46", "--N", "8",
                            "--depth", "12"]),
    # bands split over several row chunks: the benchmark's depth-13 sweep
    # (separations <= 32, 2 chunks) and depth 14 (<= 64, 8 chunks) with the
    # weighted band and the Hoelder part
    ("converge_depth13.json", ["converge", "--figure-params", "--Ns", "4,5,6,7,8,9,10,11,12",
                               "--eps-prime", "0.1", "--depth", "13", "--json"]),
    ("norms_depth14.json", ["norms", "--figure-params", "--alpha", "0.46", "--N", "8",
                            "--depth", "14"]),
    # d = 3 (bases 2, 3, 5): the sweeps over all nine entries
    ("converge_d3_depth12.json", ["converge", *D3_FLAGS, "--Ns", "3,5", "--depth", "12",
                                  "--json"]),
    ("norms_d3_depth12.json", ["norms", *D3_FLAGS, "--alpha", "0.42", "--N", "6",
                               "--depth", "12"]),
    ("norms_exponent.csv", ["norms", "--figure-params", "--estimate-exponent", "--N", "12",
                            "--depth", "8"]),
    # the witness tail, summed exactly until its geometric remainder is negligible
    ("norms_witness.json", ["norms", "--figure-params", "--witness", "--N", "10"]),
    # d = 1 under a tolerance: the first-level tail alone sets the level
    ("norms_d1_tol.json", ["norms", "--b", "2", "--a", "18/25", "--alpha", "0.46",
                           "--tol", "1e-6", "--depth", "8"]),
    ("demo.csv", ["demo", "--Ns", "1,2,3,4", "--t", "7/10"]),
    ("bounds.csv", ["bounds", "--b1", "2", "--b2", "3", "--n", "2", "--ell", "3",
                    "--eps", "0.2", "--samples", "20"]),
    ("rde_rough_N8.csv", ["rde", "--figure-params", "--N", "8", "--rough",
                          "--step", "1/1024", "--points", "33"]),
    ("rde_rough_tol.csv", ["rde", "--figure-params", "--tol", "1e-6", "--rough",
                           "--step", "1/1024", "--points", "33"]),
    # the ODE through the step-matrix propagator: output strides 32 and 128
    # (one block of many segments), and 8192, the one-segment-per-block
    # layout of the figure-3 solve
    ("rde_ode_rk4.csv", ["rde", "--figure-params", "--N", "4", "--step", "1/1024",
                         "--points", "33"]),
    ("rde_ode_propagator.csv", ["rde", "--figure-params", "--N", "4", "--step", "1/4096",
                                "--points", "33"]),
    ("rde_ode_one_segment.csv", ["rde", "--figure-params", "--N", "4", "--step", "1/16384",
                                 "--points", "3"]),
    # a step that is not a power of two (K = 3,000), where scaling by h/2 rounds
    ("rde_ode_nondyadic.csv", ["rde", "--figure-params", "--N", "4", "--step", "1/3000",
                               "--points", "9"]),
)


def write_golden(name: str, argv: list, directory: Path) -> Path:
    path = directory / name
    code = main(argv + ["--out", str(path)])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    return path


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_output_matches_golden(name, argv, tmp_path):
    got = write_golden(name, argv, tmp_path).read_bytes()
    assert got == (GOLDEN_DIR / name).read_bytes()


# a number not glued to a name or a version string (Y1, 0.1.0)
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def drift(old: str, new: str) -> str:
    """One line comparing the numbers printed in two runs of the same command."""
    a, b = _NUMBER.findall(old), _NUMBER.findall(new)
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new) or len(a) != len(b):
        return "layout differs (text or count of numbers)"
    changed = [(float(x), float(y)) for x, y in zip(a, b) if x != y]
    if not changed:
        return f"identical ({len(a)} numbers)"
    abs_drift = max(abs(x - y) for x, y in changed)
    rel_drift = max(abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0 for x, y in changed)
    return (f"{len(changed)} of {len(a)} numbers differ, largest absolute drift "
            f"{abs_drift:.2g}, largest relative drift {rel_drift:.2g}")


def test_drift_reports_changed_numbers():
    old = "t,Y1\n# generator=weierpath 0.1.0\n0.5,1.25,-3e-05\n"
    assert drift(old, old) == "identical (3 numbers)"
    assert drift(old, old.replace("1.25", "1.2500000000000002")) == (
        "1 of 3 numbers differ, largest absolute drift 2.2e-16, largest relative drift 1.8e-16")
    assert drift(old, old.replace("t,Y1", "t,Y2")).startswith("layout differs")
    assert drift(old, old + "1.0,2.0,3.0\n").startswith("layout differs")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden files, or report drift.")
    parser.add_argument("--drift", action="store_true",
                        help="run into a temporary directory and compare with tests/golden/")
    if parser.parse_args().drift:
        with tempfile.TemporaryDirectory() as tmp:
            for name, argv in GOLDEN:
                new = write_golden(name, argv, Path(tmp)).read_text()
                print(f"{name}: {drift((GOLDEN_DIR / name).read_text(), new)}")
    else:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, argv in GOLDEN:
            print(write_golden(name, argv, GOLDEN_DIR))
