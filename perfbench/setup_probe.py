"""One set-up in a fresh interpreter; prints its duration in seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <work dir>

The clock starts before numpy is imported, so the figure covers importing
the simulator (and its numpy/scipy dependencies) and building the first
block of op inputs. Interpreter start-up is not included. It prints the wall
time and then the time rescaled to the reference host speed, sampled with
the interpreter-bound kernel of ``speed.py`` (numpy is not loaded yet).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from speed import SpeedSampler  # noqa: E402

SAMPLER = SpeedSampler("python", interval_s=0.01)
SAMPLER.start()

import shutil  # noqa: E402

import workloads  # noqa: E402


def main():
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.setup(name, seed, work_dir)
    timing = SAMPLER.stop()
    workload.cleanup()
    shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{timing['wall_s']:.9f} {timing['scaled_s']:.9f}")


if __name__ == "__main__":
    main()
