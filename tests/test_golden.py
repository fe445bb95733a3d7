"""Byte-for-byte golden outputs of the command-line interface.

GOLDEN below is the only list of pinned runs: each entry names a file under
tests/golden/ and the arguments that write it.  The test reruns every entry
and compares the output with the file byte for byte, so a change that moves
any printed bit must regenerate the files on purpose:

    PYTHONPATH=src python tests/test_golden.py

The goldens are pinned on the machine that wrote them.  numpy links an
OpenBLAS built with DYNAMIC_ARCH, which picks its matrix kernels by CPU
model, so on other hardware the level-2 entries may differ in the last bits.
"""

from pathlib import Path

import pytest

from weierpath.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN = (
    ("eval_b2.csv", ["eval", "--b", "2", "--a", "18/25", "--N", "6", "--grid-step", "1/128"]),
    ("lift_N8.json", ["lift", "--figure-params", "--N", "8", "--s", "3/40", "--t", "31/40"]),
    ("lift_N20_big_den.json", ["lift", "--figure-params", "--N", "20",
                               "--s", "123457/1048573", "--t", "900001/1048573"]),
    ("lift_tol.json", ["lift", "--figure-params", "--tol", "1e-7", "--eps-prime", "0.1"]),
    ("norms.json", ["norms", "--figure-params", "--alpha", "0.46", "--N", "8", "--depth", "6"]),
    ("converge.csv", ["converge", "--figure-params", "--Ns", "4,6,8", "--depth", "6"]),
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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN:
        print(write_golden(name, argv, GOLDEN_DIR))
