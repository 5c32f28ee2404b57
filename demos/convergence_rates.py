"""Observed order of accuracy of the split scheme.

Runs both models down a tau ladder against a fourth-order Richardson
reference and prints the error table; the rates settle near 2.
"""

from acsplit.harness import RunConfig, convergence_study


def main():
    ladder = [1 / 100, 1 / 200, 1 / 400, 1 / 800]

    vec_cfg = RunConfig(
        model="vector", d=2, n=32, tau=1.0, steps=1,
        ic="smooth_deterministic", ic_params={"magnitude": 2.0},
    )
    print("vector model, 32^2, smooth deterministic data:")
    print(convergence_study(vec_cfg, ladder, t_final=0.1).format())

    mat_cfg = RunConfig(
        model="matrix", d=2, n=32, m=2, tau=1.0, steps=1,
        ic="smooth", ic_params={"sup": 1.2}, seed=3,
    )
    print()
    print("matrix model, 32^2, band-limited random data:")
    print(convergence_study(mat_cfg, ladder, t_final=0.1).format())


if __name__ == "__main__":
    main()
