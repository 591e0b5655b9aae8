"""The seeded inputs keep their draws: digests of every sampler's output at n = 1, 2, 4 and seeds 0-4.

For each n and seed one Generator draws, in turn, a random_crms_form, a random_crps_pair, a
compatible_reference and a random_smooth_state on a 16x12 torus, as a tensor workload draws its
pair and then its reference from one Generator.  A moved, added or dropped draw changes every
later output by O(1).  Each digest hashes the outputs rounded to float32 (with -0.0 made +0.0),
so a BLAS or libm that rounds a product or a sine differently in the last bit of a double gives
the same digest.
"""

import hashlib

import numpy as np

from crms.fields import TorusGrid
from crms.sampling import compatible_reference, random_crms_form, random_crps_pair, random_smooth_state

DIGESTS = {
    "random_crms_form": "ac6006c02ec496a0dfa1abe6d9106161495c943b9c8a38b845ce9b809dc119e5",
    "random_crps_pair": "24a20f6030b82044b91caf5b974a9ca7831a1c26481bb24e8b6b88e1c28272b4",
    "compatible_reference": "8a682363109caf8ab255ee0a799b63ec776437ad2f060a179ac913b0fad1dc17",
    "random_smooth_state": "76e146bba148594ad354f9cd0e0127c27bee4f7b01cdb295a55af726ddde7295",
}


def test_seeded_inputs_keep_their_digests():
    digests = {name: hashlib.sha256() for name in DIGESTS}
    for n in (1, 2, 4):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            form, _ = random_crms_form(n, rng)
            pair = random_crps_pair(n, rng)
            outputs = {
                "random_crms_form": [form.coeffs],
                "random_crps_pair": [pair.omega1, pair.omega2],
                "compatible_reference": [compatible_reference(n, rng).matrix],
                "random_smooth_state": [random_smooth_state(TorusGrid(16, 12), n, 1.0, rng).values],
            }
            for name, arrays in outputs.items():
                for a in arrays:
                    digests[name].update((np.ascontiguousarray(a, dtype=np.float32) + np.float32(0.0)).tobytes())
    assert {name: d.hexdigest() for name, d in digests.items()} == DIGESTS
