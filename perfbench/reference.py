"""The benchmark's reference job: a fixed amount of work that calls no
`collate` code, so a change to the program never moves its time.

    python3 perfbench/reference.py

run.py times this script in a fresh interpreter right before and right
after every `collate` command, and scales each command's wall time by the
reference job's (see run.py). Like a `collate` command, it starts an
interpreter, imports numpy, and then does small numpy operations and Python
arithmetic.
"""
import numpy


def main() -> None:
    rng = numpy.random.default_rng(0)
    vec = rng.standard_normal(100)
    mat = rng.standard_normal((100, 100)) / 10.0
    acc = 0.0
    for _ in range(1500):
        vec = numpy.tanh(mat @ vec) * 0.5 + 0.1
        acc += float(vec.sum())
        for j in range(30):
            acc += j * 0.5
    if not numpy.isfinite(acc):
        raise SystemExit("reference job diverged")


if __name__ == "__main__":
    main()
