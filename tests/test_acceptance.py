"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s and in
failure output) and asserts its runtime budget around the whole
criterion, first calls included.
"""

import time

import numpy as np

from qsgames import attacks, experiments, games, qscheme, schemes
from qsgames import fiatshamir as fs
from qsgames.bits import BitString
from qsgames.oram import DataRequest, OramParams, diff_nodes, oram_access, oram_init
from qsgames.qoram import QuantumDataRequest, qoram_access, qoram_init
from qsgames.quantum import (
    DensityMatrix,
    StateVector,
    apply_gate,
    avg_perm_channel,
    avg_perm_channel_sampled,
    maximally_mixed,
    partial_trace,
    qotp_apply,
    trace_distance,
    type1_from_type2,
    type1_oracle,
    type2_from_type1,
    type2_oracle,
)
from qsgames.rng import BlumMicaliPrng, Rand


def report(criterion: int, ok: bool, detail: str):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {criterion}: {detail}")
    assert ok, detail


class Elapsed:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def test_criterion_1_hadamard_certainty():
    """Uniform-superposition distinguisher wins with certainty against
    in-place lifts of length-preserving schemes, m in 2..6."""
    with Elapsed() as t:
        outcomes = {}
        for m in range(2, 7):
            for name, inner in (("otp", schemes.OtpScheme(m)),
                                ("goldreich", schemes.GoldreichScheme(m))):
                lift = qscheme.Type2LiftScheme(inner)
                adv = attacks.HadamardDistinguisher(m)
                res = games.estimate_advantage(
                    lambda r: games.game_qind(lift, adv, r), 100, seed=7
                )
                outcomes[(m, name)] = res.successes
    ok = all(v == 100 for v in outcomes.values()) and t.seconds < 5.0
    report(1, ok, f"100/100 for all m in 2..6 against both lifts "
                  f"(min {min(outcomes.values())}/100), {t.seconds:.1f}s < 5s")


def test_criterion_2_permutation_channel_bound():
    """Ideal-permutation ciphertexts sit within 2^(2-r) of maximally
    mixed (closed form, Monte-Carlo cross-check, game advantage)."""
    m = 2
    with Elapsed() as t:
        channel_ok = True
        mc_ok = True
        adv_ok = True
        details = []
        for r_bits in (3, 4):
            bound = 2.0 ** (2 - r_bits)
            plus = StateVector.zero(m)
            for q in range(m):
                plus = apply_gate(plus, "H", [q])
            for rho in (plus.density(), DensityMatrix.random_pure(m, Rand(100 + r_bits))):
                cf = avg_perm_channel(rho, r_bits)
                td = trace_distance(cf, maximally_mixed(m + r_bits))
                channel_ok &= td <= bound + 1e-12
                mc = avg_perm_channel_sampled(rho, r_bits, Rand(200 + r_bits), 1000)
                mc_ok &= np.abs(mc.mat - cf.mat).max() <= 3 / np.sqrt(1000)
            lift = qscheme.Type2LiftScheme(schemes.PrpScheme(m, r_bits))
            adv = attacks.HadamardDistinguisher(m)
            res = games.estimate_advantage(
                lambda r: games.game_qind(lift, adv, r), 1000, seed=7
            )
            adv_ok &= abs(res.advantage) <= bound + games.three_sigma(1000)
            details.append(f"r={r_bits}: td<={bound}, adv={res.advantage:+.3f}")
    ok = channel_ok and mc_ok and adv_ok and t.seconds < 30.0
    report(2, ok, f"{'; '.join(details)}; closed form = MC within 3 sigma, {t.seconds:.1f}s < 30s")


def test_criterion_3_pauli_mask_perfect_secrecy():
    """Exact average over all 4^n mask keys equals the maximally mixed
    state entrywise, on pure, mixed, and purification-reduced inputs."""
    with Elapsed() as t:
        worst = 0.0
        for n in (1, 2):
            rand = Rand(300 + n)
            inputs = []
            for i in range(10):
                if i % 3 == 0:
                    inputs.append(DensityMatrix.random_pure(n, rand))
                elif i % 3 == 1:
                    inputs.append(DensityMatrix.random_mixed(n, rand))
                else:
                    joint = StateVector.random(n + 2, rand).density()
                    inputs.append(partial_trace(joint, list(range(n))))
            dim = 1 << n
            for rho in inputs:
                acc = np.zeros((dim, dim), dtype=complex)
                for key_val in range(1 << (2 * n)):
                    acc += qotp_apply(BitString(key_val, 2 * n), rho).mat
                acc /= 1 << (2 * n)
                worst = max(worst, np.abs(acc - np.eye(dim) / dim).max())
    ok = worst < 1e-10 and t.seconds < 5.0
    report(3, ok, f"max entrywise deviation {worst:.2e} < 1e-10 over 20 inputs, "
                  f"{t.seconds:.1f}s < 5s")


def test_criterion_4_oracle_conversions():
    """Both conversion circuits reproduce the directly built oracle
    entrywise (exact on the honest slice for the in-place direction)."""
    with Elapsed() as t:
        checked = 0
        worst = 0.0
        cases = []
        for d in (1, 2, 3):
            cases.append(schemes.OtpScheme(d))
        cases.append(schemes.GoldreichScheme(2))
        cases.append(schemes.GoldreichScheme(3))
        cases.append(schemes.PrpScheme(2, 1))
        rand = Rand(400)
        for scheme in cases:
            key = scheme.key_gen(rand)
            r = rand.bits(scheme.r_bits) if scheme.r_bits else None
            perm, _ = scheme.enc_perm(key, r) if scheme.r_bits else scheme.enc_perm(key)
            d = perm.domain_bits
            enc2 = type2_oracle(perm)
            built1 = type1_from_type2(enc2, enc2.inverted())
            direct1 = type1_oracle(perm.forward, d, d)
            worst = max(worst, np.abs(built1.matrix - direct1.matrix).max())
            built2 = type2_from_type1(direct1, type1_oracle(perm.inverse, d, d))
            for x in range(1 << d):
                col = built2.matrix[:, x << d]
                expect = np.zeros(1 << (2 * d))
                expect[perm.apply(x) << d] = 1.0
                worst = max(worst, np.abs(col - expect).max())
            checked += 1
    ok = worst <= 1e-8 and t.seconds < 5.0
    report(4, ok, f"{checked} pinned ciphers, worst entrywise deviation {worst:.1e} <= 1e-8, "
                  f"{t.seconds:.1f}s < 5s")


def test_criterion_5_classical_separation_suite():
    """Each separation attack is certain against its target and null
    against the hardened counterpart."""
    with Elapsed() as t:
        gold = schemes.GoldreichScheme(8)
        sep = schemes.Cca1SepScheme(msg_bits=8)
        prp = schemes.PrpScheme(8, 4)
        reuse = attacks.OtpReuseAttack(8)
        cca1 = attacks.Cca1CounterexampleAttack(sep)
        flip = attacks.Cca2FlipAttack(8)
        pairs = [
            ("otp-reuse", lambda r: games.game_ind(schemes.OtpScheme(8), reuse, r, variant="cpa"),
             lambda r: games.game_ind(gold, reuse, r, variant="cpa")),
            ("cca1-counterexample", lambda r: games.game_ind(sep, cca1, r, variant="cca1"),
             lambda r: games.game_ind(gold, cca1, r, variant="cca1")),
            ("cca2-flip", lambda r: games.game_ind(gold, flip, r, variant="cca2"),
             lambda r: games.game_ind(prp, flip, r, variant="cca2")),
        ]
        wins, nulls = [], []
        for name, break_game, null_game in pairs:
            wins.append(games.estimate_advantage(break_game, 200, seed=7).successes)
            nulls.append(games.estimate_advantage(null_game, 1000, seed=7).advantage)
    band = games.three_sigma(1000)
    ok = all(w == 200 for w in wins) and all(abs(a) <= band for a in nulls) and t.seconds < 20.0
    report(5, ok, f"wins {wins} all 200/200; null advantages "
                  f"{[f'{a:+.3f}' for a in nulls]} within {band:.3f}; {t.seconds:.1f}s < 20s")


def test_criterion_6_oram_separation():
    """Generator-prediction attack beats the predictable-position-map
    ORAM and is null against the hardened instantiation."""
    p, g, k, n_db = 65537, 3, 16, 16
    adv = attacks.bm_oram_attack(k, p, g)

    def bm_factory(r):
        return oram_init(OramParams(n_db=n_db, n_dat=8), r,
                         prng=BlumMicaliPrng(p, g, r.integer(1, p)))

    def secure_factory(r):
        return oram_init(OramParams(n_db=n_db, n_dat=8), r)

    with Elapsed() as t:
        res_break = games.estimate_advantage(
            lambda r: games.game_ap_ind_cqa(bm_factory, adv, r, q1_max=k + 2), 200, seed=7
        )
        res_null = games.estimate_advantage(
            lambda r: games.game_ap_ind_cqa(secure_factory, adv, r, q1_max=k + 2), 1000, seed=7
        )
    band = games.three_sigma(1000)
    ok = (res_break.successes >= 190 and abs(res_null.advantage) <= band
          and t.seconds < 60.0)
    report(6, ok, f"break {res_break.successes}/200 >= 190; "
                  f"null advantage {res_null.advantage:+.4f} within {band:.4f}; "
                  f"{t.seconds:.1f}s < 60s")


def test_criterion_7_oram_soundness_and_qoram_fidelity():
    """10^4 sound random accesses with path-local diffs; quantum
    write-then-read returns the payload exactly."""
    with Elapsed() as t:
        params = OramParams(n_db=64, n_dat=8)
        client, server = oram_init(params, Rand(700))
        gen = Rand(701).numpy()
        shadow = {}
        violations = 0
        locality_ok = True
        for _ in range(10000):
            i = int(gen.integers(1, 65))
            if gen.random() < 0.5:
                data = BitString(int(gen.integers(0, 256)), 8)
                _, _, ap = oram_access(client, server, DataRequest("write", i, data))
                shadow[i] = data
            else:
                _, _, ap = oram_access(client, server, DataRequest("read", i))
                expect = shadow.get(i, BitString.zeros(8))
                violations += client.last_read != expect
            path = set(server.path_nodes(ap.transcript.leaf))
            locality_ok &= set(diff_nodes(ap.pre_db, ap.post_db)) <= path
        stash_peak = max(client.stash_history)
        stash_ok = stash_peak <= 4 * 6  # soft bound 4 log2(n_db)

        fidelity_ok = True
        count = 0
        for n_dat in (1, 2):
            qparams = OramParams(n_db=2, n_dat=n_dat)
            rand = Rand(710 + n_dat)
            for _ in range(50):
                qc, qs = qoram_init(qparams, rand.child())
                phi = DensityMatrix.random_pure(n_dat, rand)
                ident = 1 + (count % 2)
                qoram_access(qc, qs, QuantumDataRequest("write", ident, phi))
                qoram_access(qc, qs, QuantumDataRequest("read", ident))
                fidelity_ok &= trace_distance(qc.retrieved, phi) < 1e-9
                count += 1
    ok = (violations == 0 and locality_ok and stash_ok and fidelity_ok and count == 100
          and t.seconds < 60.0)
    report(7, ok, f"10^4 accesses, {violations} soundness violations, path-local diffs, "
                  f"stash peak {stash_peak} <= 24; 100/100 quantum roundtrips at "
                  f"fidelity 1; {t.seconds:.1f}s < 60s")


def test_criterion_8_qap_null_battery():
    """Tag-only and payload-only distinguishers stay inside the noise
    band against the quantum tree ORAM."""
    def factory(r):
        return qoram_init(OramParams(n_db=2, n_dat=1), r)

    with Elapsed() as t:
        tag = games.estimate_advantage(
            lambda r: games.game_qap_ind_cqa(factory, attacks.TagOnlyQapDistinguisher(k_queries=4), r),
            500, seed=7,
        )
        pay = games.estimate_advantage(
            lambda r: games.game_qap_ind_cqa(factory, attacks.PayloadOnlyQapDistinguisher(), r),
            500, seed=7,
        )
    band = games.three_sigma(500)
    ok = abs(tag.advantage) <= band and abs(pay.advantage) <= band and t.seconds < 60.0
    report(8, ok, f"tag-only {tag.advantage:+.4f}, payload-only {pay.advantage:+.4f}, "
                  f"band {band:.4f}; {t.seconds:.1f}s < 60s")


def test_criterion_9_proof_protocol_suite():
    """Completeness, extraction, simulation equality, forgery nulls,
    and the pinned-fraction oracle, at their stated counts."""
    with Elapsed() as t:
        rand = Rand(900)
        sigma_ok = all(
            fs.schnorr_verify(fs.SIGN_GROUP, inst.x, fs.run_honest(inst, rand))
            for inst in (fs.inst_gen(fs.SIGN_GROUP, rand) for _ in range(1000))
        )

        forms_ok = True
        for form in ("sigma", "lambda"):
            scheme = fs.FsSigScheme(form=form)
            pk, sk = scheme.key_gen(rand)
            oracle = scheme.fresh_oracle(rand.child())
            forms_ok &= all(
                scheme.verify(pk, f"m{i}", scheme.sign(sk, f"m{i}", oracle, rand), oracle)
                for i in range(1000)
            )

        extract_ok = True
        for _ in range(1000):
            inst = fs.inst_gen(fs.TOY_GROUP, rand)
            a = rand.integer(0, fs.TOY_GROUP.q)
            com = fs.schnorr_commit(fs.TOY_GROUP, a)
            ch1 = rand.integer(0, fs.TOY_GROUP.q)
            ch2 = (ch1 + 1 + rand.integer(0, fs.TOY_GROUP.q - 1)) % fs.TOY_GROUP.q
            t1 = fs.SigmaTranscript(com, ch1, fs.schnorr_respond(inst, a, ch1))
            t2 = fs.SigmaTranscript(com, ch2, fs.schnorr_respond(inst, a, ch2))
            w = fs.special_soundness_extract(fs.TOY_GROUP, inst.x, t1, t2)
            extract_ok &= pow(fs.TOY_GROUP.g, w, fs.TOY_GROUP.p) == inst.x

        # exhaustive simulator equality at q = 11
        inst = fs.HardInstance(fs.TOY_GROUP, 8, 3)
        q, g, p = fs.TOY_GROUP.q, fs.TOY_GROUP.g, fs.TOY_GROUP.p
        x_inv = pow(8, -1, p)
        honest = sorted(
            (fs.schnorr_commit(fs.TOY_GROUP, a), ch, fs.schnorr_respond(inst, a, ch))
            for a in range(q) for ch in range(q)
        )
        simulated = sorted(
            ((pow(g, resp, p) * pow(x_inv, ch, p)) % p, ch, resp)
            for ch in range(q) for resp in range(q)
        )
        hvzk_ok = honest == simulated

        forgers_ok = True
        for form in ("sigma", "lambda"):
            scheme = fs.FsSigScheme(form=form)
            forgers_ok &= games.estimate_advantage(
                lambda r: games.game_euf_cma(scheme, games.ReplayForger(), r), 1000, seed=7
            ).successes == 0
            forgers_ok &= games.estimate_advantage(
                lambda r: games.game_euf_cma(scheme, games.RandomForger(scheme), r), 1000, seed=7
            ).successes == 0

        oracle_ok = True
        n = 10000
        for delta in (0.0, 0.25, 1.0):
            oracle = fs.semi_constant_oracle(delta, 3, seed=7, q=1 << 16)
            hits = sum(oracle.query("x", i) == 3 for i in range(n))
            sigma = (delta * (1 - delta) / n) ** 0.5
            oracle_ok &= abs(hits / n - delta) <= max(3 * sigma, 1e-3)
    ok = (sigma_ok and forms_ok and extract_ok and hvzk_ok and forgers_ok and oracle_ok
          and t.seconds < 10.0)
    report(9, ok, f"completeness 1000/1000 both forms; extraction 1000/1000; "
                  f"simulator multiset equal at q=11; forgers 0/1000; pinned "
                  f"fractions within band; {t.seconds:.1f}s < 10s")


def test_criterion_10_deterministic_reports():
    """Every catalog experiment reports byte-identically when re-run
    with the same seed and parameters (runtime field excluded)."""
    import json

    mismatched = []
    for entry in experiments.list_experiments():
        exp = experiments.get(entry["name"])
        payloads = []
        for _ in range(2):
            result, passed = exp.run(trials=4)
            obj = json.loads(result.to_json())
            obj.pop("runtime_ms")
            obj["pass"] = passed
            payloads.append(json.dumps(obj, sort_keys=True))
        if payloads[0] != payloads[1]:
            mismatched.append(entry["name"])
    ok = not mismatched
    report(10, ok, f"all {len(experiments.list_experiments())} experiments re-run "
                   f"byte-identically (excluding runtime){'' if ok else ': ' + str(mismatched)}")
