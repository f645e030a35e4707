"""The benchmark's workloads: inputs made from a seed, one op, answer checks.

Each workload is a closed loop with one caller and no threads.  Its class
records the field, bounds, input shapes and op definition; ``why`` is the
line copied into BENCHMARK.json.  Every call into fourspace goes through
the package's public names at call time (``fs.hom_vector``, ``fs.build``,
...), so the tracer's wrappers see it.
"""

from __future__ import annotations

import random
from collections import Counter

GF_PRIME = 32003
LAMBDAS = (2, 5)


def derived_rng(seed, *tags):
    """Independent deterministic stream for (seed, tags)."""
    return random.Random(":".join(map(str, (seed,) + tags)))


def planted_summands(fs, rng, pool, target):
    """Random multiset from pool whose dimension vectors add up to target.

    One homogeneous tube R(l, lam), l in {1, 2}, lam in LAMBDAS, is always
    planted first: tube cases are the ones a sign error can hide in.
    """
    while True:
        picks = [fs.R(rng.randint(1, 2), rng.choice(LAMBDAS))]
        rest = [t - d for t, d in zip(target, fs.declared_dim(picks[0]))]
        while any(rest):
            fits = [d for d in pool
                    if all(x <= r for x, r in zip(fs.declared_dim(d), rest))]
            if not fits:
                break
            picks.append(rng.choice(fits))
            rest = [r - x for r, x in zip(rest, fs.declared_dim(picks[-1]))]
        if not any(rest):
            return picks


def disguised_sum(fs, field, picks, rng):
    """Direct sum of the picked catalog modules behind a random base change."""
    invertible = fs.exactmat.random_invertible
    m = fs.zero_module(field)
    for desc in picks:
        m = fs.module_direct_sum(m, fs.build(desc, field))
    u = invertible(field, m.n0, rng)
    vs = [invertible(field, w.cols, rng) for w in m.mats()]
    return fs.base_change(m, u, vs)


class Workload:
    name = ""
    why = ""
    field = ""
    bounds = ""
    inputs = ""
    op = ""
    work_unit = ""
    work_per_op = 1
    # op k runs on input k mod pool_size
    pool_size = 1
    # nominal ops per second of the untraced loop; sets its op count, so
    # that a run's length follows --seconds but its ops do not follow the
    # clock, and a faster change times the same inputs as its parent
    op_rate = 1.0
    # ops per second of the traced run (untraced + traced execution of each
    # op); a constant, so the traced run does the same work on every run
    trace_rate = 1.0
    cli = ""
    # op 0 runs once before the timed loop: work users pay once per process
    warm_up = False
    # module written to a file for the CLI call, if the CLI reads one
    cli_module = None
    # end-to-end metric -> (name in the workload docs, scale, unit)
    aliases = {}

    def __init__(self, fs, seed):
        self.fs = fs
        self.seed = seed

    def ops_per_run(self, seconds):
        """Untraced ops in a run of about `seconds`: whole passes of the pool."""
        passes = max(1, round(seconds * self.op_rate / self.pool_size))
        return passes * self.pool_size

    def input_kind(self, p):
        """A few words on input p of the pool, for the per-input report."""
        raise NotImplementedError

    def run_op(self, k):
        raise NotImplementedError

    def failed_ops(self, results):
        """Indices into results [(k, answer)] whose answers are wrong.

        answer is None when the op raised.
        """
        raise NotImplementedError

    def cli_args(self, path):
        raise NotImplementedError

    def cli_ok(self, returncode, stdout, results):
        """Whether the CLI's output is right; results as for failed_ops."""
        raise NotImplementedError


class VerifySweep(Workload):
    name = "verify-sweep"
    why = ("oracle-heavy formula-vs-oracle sweep on tiny matrices: oracle and "
           "per-call overhead show here, the transfer-matrix corank should not")
    field = "GF(32003)"
    bounds = "max_n=4, max_l=4, lambdas (2, 5): 106 descriptors (fourspace verify defaults)"
    inputs = "one run_sweep seed per op, derived from (seed, op index)"
    op = "run_sweep(GF(32003), bounds, trials=2, seed=op seed): one random and one disguised module"
    work_unit = "(module, descriptor) formula-plus-oracle checks"
    op_rate = 3.0
    trace_rate = 1.0
    cli = "fourspace verify --trials 6 (seed 0 and the same bounds, by default)"
    aliases = {"work_per_s": ("verify_checks_per_s", 1.0, "1/s")}

    def __init__(self, fs, seed):
        super().__init__(fs, seed)
        self.gf = fs.PrimeField(GF_PRIME)
        self.bnds = fs.EnumerationBounds(4, 4, LAMBDAS)
        self.descs = fs.enumerate_descriptors(self.bnds)
        self.work_per_op = 2 * len(self.descs)

    def run_op(self, k):
        op_seed = derived_rng(self.seed, "sweep", k).getrandbits(32)
        return self.fs.run_sweep(self.gf, self.bnds, trials=2, seed=op_seed)

    def failed_ops(self, results):
        return [i for i, (_, mismatches) in enumerate(results) if mismatches != []]

    def cli_args(self, path):
        return ["verify", "--trials", "6"]

    def cli_ok(self, returncode, stdout, results):
        lines = stdout.splitlines()
        want = f"all agree (6 trials x {len(self.descs)} descriptors)"
        return returncode == 0 and lines == [want]


class HomdimLarge(Workload):
    name = "homdim-large"
    why = ("hom_vector of one probe against 418 descriptors, ~400-row "
           "coefficient matrices, no oracle: block assembly, GF(p) elimination "
           "and corank show here")
    field = "GF(32003)"
    bounds = "max_n=24, max_l=12, lambdas (2, 5): 418 descriptors"
    inputs = ("12 probes of dimension (8,4,4,4,4): even ones disguised sums of "
              "catalog modules (one tube, rest drawn from the max_n=3, max_l=3 "
              "catalog), odd ones random")
    op = ("hom_vector(probe k mod 12, all 418 descriptors), as homdim --all "
          "computes; one pass of the 12 probes per run")
    work_unit = "(probe, descriptor) hom_dim answers"
    op_rate = 0.6
    trace_rate = 0.15
    cli = "fourspace homdim probe0.json --all --max-n 24 --max-l 12 --lambda 2 --lambda 5"
    aliases = {"op_p50_s": ("homdim_probe_p50_s", 1.0, "s"),
               "op_tail_s": ("homdim_probe_tail_s", 1.0, "s")}
    probe_dim = (8, 4, 4, 4, 4)
    pool_size = 12
    # The answer check runs hom_oracle after the timed loop: every
    # descriptor once, descriptor i against the (i mod used)-th probe used,
    # and every homogeneous tube against every disguised sum used, since a
    # sign error in a tube case only shows on inputs holding that tube.

    def __init__(self, fs, seed):
        super().__init__(fs, seed)
        self.gf = gf = fs.PrimeField(GF_PRIME)
        self.descs = fs.enumerate_descriptors(fs.EnumerationBounds(24, 12, LAMBDAS))
        self.work_per_op = len(self.descs)
        small = fs.enumerate_descriptors(fs.EnumerationBounds(3, 3, LAMBDAS))
        rng = derived_rng(seed, "probes")
        random_matrix = fs.exactmat.random_matrix
        n0 = self.probe_dim[0]
        self.probes = []
        for k in range(self.pool_size):
            if k % 2 == 0:
                picks = planted_summands(fs, rng, small, self.probe_dim)
                self.probes.append(disguised_sum(fs, gf, picks, rng))
            else:
                mats = (random_matrix(gf, n0, n, rng) for n in self.probe_dim[1:])
                self.probes.append(fs.LambdaModule(*mats))
        self.cli_module = self.probes[0]

    def input_kind(self, p):
        return "disguised sum" if p % 2 == 0 else "random"

    def run_op(self, k):
        return self.fs.hom_vector(self.probes[k % self.pool_size], self.descs)

    def failed_ops(self, results):
        fs = self.fs
        bad = set()
        first = {}
        for i, (k, answer) in enumerate(results):
            p = k % self.pool_size
            if answer is None or len(answer) != len(self.descs):
                bad.add(i)
            elif first.setdefault(p, answer) != answer:
                bad.add(i)
        used = sorted(first)
        pairs = {(used[i % len(used)], i) for i in range(len(self.descs)) if used}
        tubes = [i for i, d in enumerate(self.descs)
                 if d.family == fs.catalog.FAMILY_REGULAR_HOMOGENEOUS]
        pairs.update((p, i) for p in used if p % 2 == 0 for i in tubes)
        wrong = set()
        for p, i in sorted(pairs):
            target = fs.build(self.descs[i], self.gf)
            if fs.hom_oracle(self.probes[p], target) != first[p][i]:
                wrong.add(p)
        bad.update(i for i, (k, _) in enumerate(results) if k % self.pool_size in wrong)
        return sorted(bad)

    def cli_args(self, path):
        return ["homdim", path, "--all", "--max-n", "24", "--max-l", "12",
                "--lambda", "2", "--lambda", "5"]

    def cli_ok(self, returncode, stdout, results):
        # the answers for probe 0, which failed_ops checks against the oracle
        answer = next(a for k, a in results if k % self.pool_size == 0)
        want = [f"{d.label()}\t{v}" for d, v in zip(self.descs, answer or ())]
        return returncode == 0 and stdout.splitlines() == want


class DecomposeQQ(Workload):
    name = "decompose-qq"
    why = ("decompose over QQ: Fraction elimination on many tiny matrices and an "
           "82x82 Fraction Gram inverse; GF(p)-only changes should not move it")
    field = "QQ"
    bounds = "max_n=3, max_l=3, lambdas (2, 5): 82 candidates"
    inputs = ("12 disguised sums of dimension (6,3,3,3,3) with planted summands "
              "from the 82 candidates, one tube each")
    op = ("warm decompose(input k mod 12, bounds), after one warm-up call builds "
          "the Gram solver; whole passes of the 12 inputs")
    work_unit = "decompositions"
    op_rate = 1.2
    trace_rate = 0.7
    cli = "fourspace decompose input0.json --max-n 3 --max-l 3 --lambda 2 --lambda 5 (cold)"
    aliases = {"op_p50_s": ("decompose_p50_ms", 1e3, "ms"),
               "op_tail_s": ("decompose_tail_ms", 1e3, "ms"),
               "cli_s": ("decompose_cli_s", 1.0, "s")}
    warm_up = True
    input_dim = (6, 3, 3, 3, 3)
    pool_size = 12

    def __init__(self, fs, seed):
        super().__init__(fs, seed)
        self.bnds = fs.EnumerationBounds(3, 3, LAMBDAS)
        cands = fs.enumerate_descriptors(self.bnds)
        rng = derived_rng(seed, "planted")
        self.planted = []
        self.modules = []
        for _ in range(self.pool_size):
            picks = planted_summands(fs, rng, cands, self.input_dim)
            self.planted.append(dict(Counter(picks)))
            self.modules.append(disguised_sum(fs, fs.QQ, picks, rng))
        self.cli_module = self.modules[0]

    def input_kind(self, p):
        return f"{sum(self.planted[p].values())} summands"

    def run_op(self, k):
        return self.fs.decompose(self.modules[k % self.pool_size], self.bnds)

    def failed_ops(self, results):
        return [i for i, (k, answer) in enumerate(results)
                if answer != self.planted[k % self.pool_size]]

    def cli_args(self, path):
        return ["decompose", path, "--max-n", "3", "--max-l", "3",
                "--lambda", "2", "--lambda", "5"]

    def cli_ok(self, returncode, stdout, results):
        want = sorted(f"{mu} × {d.label()}" for d, mu in self.planted[0].items())
        return returncode == 0 and sorted(stdout.splitlines()) == want


WORKLOADS = {w.name: w for w in (VerifySweep, HomdimLarge, DecomposeQQ)}
