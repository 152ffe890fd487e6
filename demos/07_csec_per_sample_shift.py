"""Does the corrector's offset branch earn its keep on per-sample shifts?

Acceptance criterion 10 corrupts every sample with one shared exposure
field.  Here each sample draws its own field, and the held-out PSNR gain
of three inits is compared over 3 data seeds and 2 learning rates:

- today's init, where ``cose.w2 = 0`` keeps the offset branch at exact
  zero (and so at a zero gradient) for the whole of training;
- a live branch, ``cose.w2`` drawn fan-in uniform from ``SplitMix64(99)``
  and scaled by k = 0.1 or k = 1.  The decoder's zero output layer keeps
  the corrector an identity at init either way.

Data: criterion 10's ``SynthSpec``; a data seed's ``SplitMix64`` draws
each sample's scene, then its exposure field, 64 training pairs and then
16 held out.  Training: ``train_csec`` for 25 epochs, seed 0.  Each cell
prints the mean held-out gain in dB at each data seed.  Takes about
3 minutes at 1 BLAS thread.
"""

import time

import numpy as np

from segkit.csec import CsecConfig, csec_correct, init_csec, psnr, train_csec
from segkit.dataio import SynthSpec, corrupt_gamma_region, generate_sample
from segkit.optim import fan_in_uniform
from segkit.rng import SplitMix64
from segkit.tensor import Tensor, no_grad

SPEC = SynthSpec(seed=7, image_size=(32, 32), n_classes=4, shapes_min=1, shapes_max=3,
                 noise=0.05)
DATA_SEEDS = (11, 12, 13)
LRS = (1e-3, 3e-4)
ARMS = (("today's init (branch dead)", None), ("live, k = 0.1", 0.1), ("live, k = 1", 1.0))


def pairs(data_seed, n_train=64, n_heldout=16):
    rng = SplitMix64(data_seed)
    out = []
    for _ in range(n_train + n_heldout):
        clean, _, _ = generate_sample(rng.next_u64(), SPEC)
        out.append((corrupt_gamma_region(clean, rng.next_u64())[None], clean[None]))
    return out[:n_train], out[n_train:]


def heldout_gain(data_seed, lr, k):
    """(mean held-out PSNR gain in dB, identity deviation at init)."""
    train_pairs, heldout = pairs(data_seed)
    cfg = CsecConfig()
    params = init_csec(cfg, seed=3)
    if k is not None:
        w2 = params["cose.w2"]
        w2.data = fan_in_uniform(SplitMix64(99), w2.shape, int(np.prod(w2.shape[1:]))) * k
    with no_grad():
        dev = max(float(np.max(np.abs(csec_correct(Tensor(c), params, cfg).data - c)))
                  for c, _ in heldout)
    train_csec(train_pairs, params, cfg, epochs=25, lr=lr, seed=0)
    with no_grad():
        gain = np.mean([psnr(csec_correct(Tensor(c), params, cfg), clean) - psnr(c, clean)
                        for c, clean in heldout])
    return float(gain), dev


def main():
    print("held-out PSNR gain in dB at data seeds " + " / ".join(map(str, DATA_SEEDS)))
    print()
    print("| lr | " + " | ".join(name for name, _ in ARMS) + " |")
    print("|---|" + "---|" * len(ARMS))
    devs, seconds = set(), {}
    for lr in LRS:
        cells = []
        for name, k in ARMS:
            gains = []
            for seed in DATA_SEEDS:
                start = time.perf_counter()
                gain, dev = heldout_gain(seed, lr, k)
                seconds.setdefault(name, []).append(time.perf_counter() - start)
                gains.append(gain)
                devs.add(f"{dev:.1e}")
            cells.append(" / ".join(f"{g:.2f}" for g in gains))
        print(f"| {lr:g} | " + " | ".join(cells) + " |")
    print()
    print("identity deviation at init: " + ", ".join(sorted(devs)))
    for name, secs in seconds.items():
        print(f"{name}: median {np.median(secs):.1f} s per run")


if __name__ == "__main__":
    main()
