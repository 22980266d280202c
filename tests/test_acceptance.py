"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (pytest -s shows them)."""

import time

import numpy as np
import pytest

from fdsim.fft import (ConfigurationError, FftJob, fft_fixed, fft_reference,
                       load_quantized, read_spectrum, spectrum_snr_db)
from fdsim.fixedpoint import DataType
from fdsim.harness import (DEFAULT_CLOCK_HZ, SNR_CALIBRATION, SNR_FLOORS_DB,
                           FftRunSpec, InputSpec, run_fft_experiment)
from fdsim.i2s import (Alignment, BusConfig, BusMode, FramePayload,
                       FsyncStyle, Polarity, bclk_frequency, decode, encode,
                       latency_dsp, latency_tdm, measure_latency)
from fdsim.membank import BankedMemory
from fdsim.schedule import THROUGHPUT, fft_sizes, total_cycle_model
from test_i2s_reference import words_from_frames

ALL_DTYPES = list(DataType)
NOISE_SEED = SNR_CALIBRATION["seed"]
NOISE_AMPLITUDE = SNR_CALIBRATION["amplitude"]


def report(criterion, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} acceptance {criterion}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance {criterion} failed: {detail}"


def run_noise(dtype, n, seed=NOISE_SEED):
    rng = np.random.default_rng(seed)
    x = (rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, n)
         + 1j * rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, n))
    mem = BankedMemory()
    job = FftJob(n, dtype)
    oracle_in = load_quantized(mem, job, x)
    summary = fft_fixed(job, mem)
    return mem, job, summary, oracle_in


@pytest.fixture(scope="module")
def full_grid_runs():
    """One simulated run per (dtype, size) over the whole supported grid."""
    t0 = time.monotonic()
    runs = {}
    for dtype in ALL_DTYPES:
        for n in fft_sizes(dtype):
            runs[(dtype, n)] = run_noise(dtype, n)
    elapsed = time.monotonic() - t0
    return runs, elapsed


def test_1_throughput_model(full_grid_runs):
    runs, elapsed = full_grid_runs
    ok = True
    for (dtype, n), (_, _, summary, _) in runs.items():
        m = n.bit_length() - 1
        want = (n // 2) * m // THROUGHPUT[dtype]
        ok &= summary.stats.butterfly_cycles == want
        ok &= summary.stats.as_dict() == total_cycle_model(n, dtype).as_dict()
    ok &= elapsed < 60.0
    report("1 throughput model (full grid, exact)", ok,
           f"{len(runs)} runs in {elapsed:.1f}s")


def test_2_conflict_locality(full_grid_runs):
    runs, _ = full_grid_runs
    ok = True
    for (dtype, n), (_, _, summary, _) in runs.items():
        s = summary.stats
        ok &= s.stage_conflicts == 0                 # stages conflict-free
        ok &= s.stall_cycles == s.conflicts          # one stall per conflict
    report("2 conflict locality (stages clean, 1 stall/conflict)", ok)


def test_3_size_limits():
    ok = True
    for dtype, top in ((DataType.C64, 512), (DataType.C32, 1024),
                       (DataType.C16, 2048)):
        mem = BankedMemory()
        FftJob(top, dtype).validate(mem)             # at the limit: accepted
        try:
            FftJob(top * 2, dtype).validate(mem)
            ok = False
        except ConfigurationError:
            pass
    report("3 size/dtype limits (512/1024/2048, next size rejected)", ok)


def test_4_latency_formulas():
    ok = True
    dsp_by_n = {}
    for K in range(1, 17):
        for n in (16, 24, 32):
            tdm_cfg = BusConfig(BusMode.TDM_I2S, K, n)
            dsp_cfg = BusConfig(BusMode.TDM_DSP, K, n)
            frames = [[FramePayload(d, 0, 0) for d in range(K)]] * 2
            words = words_from_frames(tdm_cfg, frames)
            ok &= measure_latency(encode(tdm_cfg, words), tdm_cfg) \
                == latency_tdm(n, K) == (n // 2) * (K + 1)
            got = measure_latency(encode(dsp_cfg, words), dsp_cfg)
            ok &= got == latency_dsp(n) == n
            dsp_by_n.setdefault(n, set()).add(got)
    ok &= all(len(v) == 1 for v in dsp_by_n.values())   # K-invariant
    report("4 latency formulas (TDM (n/2)(K+1), DSP n, exact)", ok)


def test_5_bclk_law():
    got = bclk_frequency(16, 32, 48000)
    report("5 BCLK law (16*32*48000 = 24.576 MHz)", got == 24_576_000,
           f"got {got}")


def test_6_numerical_fidelity(full_grid_runs):
    runs, _ = full_grid_runs
    ok = True
    details = []
    for dtype in ALL_DTYPES:
        mem, job, summary, oracle_in = runs[(dtype, dtype.max_points)]
        got = read_spectrum(mem, job) * (1 << summary.scaling_stages)
        snr = spectrum_snr_db(fft_reference(oracle_in), got)
        ok &= snr >= SNR_FLOORS_DB[dtype]
        details.append(f"{dtype.name}:{snr:.1f}dB>={SNR_FLOORS_DB[dtype]}")
    # impulse / DC / single-tone bin positions across the whole grid
    for dtype in ALL_DTYPES:
        for n in fft_sizes(dtype):
            for bin_k in (0, 3):                     # DC and a tone
                t = np.arange(n)
                x = 0.7 * np.exp(2j * np.pi * bin_k * t / n)
                mem = BankedMemory()
                job = FftJob(n, dtype)
                oracle_in = load_quantized(mem, job, x)
                fft_fixed(job, mem)
                got = read_spectrum(mem, job)
                ref = fft_reference(oracle_in)
                ok &= (int(np.argmax(np.abs(got)))
                       == int(np.argmax(np.abs(ref))) == bin_k)
            # impulse: flat spectrum, peak test degenerate; check flatness
            x = np.zeros(n, dtype=complex)
            x[0] = 0.5
            mem = BankedMemory()
            job = FftJob(n, dtype)
            load_quantized(mem, job, x)
            fft_fixed(job, mem)
            raw = read_spectrum(mem, job)
            ok &= np.max(np.abs(raw - raw[0])) <= 2 ** -(dtype.part_width - 1)
    report("6 numerical fidelity (SNR floors + exact bin positions)", ok,
           " ".join(details))


def test_7_codec_round_trip():
    rng = np.random.default_rng(77)
    sets = 0
    mismatches = 0
    for mode in BusMode:
        k_grid = [1] if mode is BusMode.STANDARD_I2S else [1, 2, 4, 8, 16]
        for K in k_grid:
            for n in (16, 24, 32):
                for pol in Polarity:
                    for align in Alignment:
                        styles = (list(FsyncStyle)
                                  if mode is BusMode.TDM_DSP
                                  else [FsyncStyle.PULSE])
                        for style in styles:
                            cfg = BusConfig(mode, K, n, polarity=pol,
                                            alignment=align, fsync_style=style)
                            kbits = cfg.channel_bits
                            frames = [
                                [FramePayload(d,
                                              int(rng.integers(0, 1 << kbits)),
                                              int(rng.integers(0, 1 << kbits)))
                                 for d in range(K)]
                                for _ in range(53)]
                            sets += len(frames)
                            words = words_from_frames(cfg, frames)
                            if decode(encode(cfg, words), cfg) != frames:
                                mismatches += 1
    report("7 codec round-trip (>=10^4 payload sets, zero mismatches)",
           sets >= 10_000 and mismatches == 0,
           f"{sets} sets, {mismatches} mismatches")


def test_8_gops_consistency():
    # clock chosen so C16 peak (40 ops/cycle) hits 10.16 GOPS
    clock = 10.16e9 / 40
    spec = FftRunSpec(FftJob(2048, DataType.C16), clock_hz=clock,
                      input=InputSpec(source="noise",
                                      amplitude=NOISE_AMPLITUDE))
    rep = run_fft_experiment(spec, seed=NOISE_SEED)
    gops = rep.metrics["gops"]
    ok = abs(gops - 10.16) <= 0.15 * 10.16
    report("8 GOPS consistency (C16/2048 within 15% of 10.16)", ok,
           f"gops={gops:.3f}, cycles={rep.metrics['total_cycles']}")
    assert DEFAULT_CLOCK_HZ == pytest.approx(clock)


def test_9_determinism():
    spec = FftRunSpec(FftJob(512, DataType.C64),
                      input=InputSpec(source="noise", amplitude=0.9))
    a = run_fft_experiment(spec, seed=1).to_json().encode()
    b = run_fft_experiment(spec, seed=1).to_json().encode()
    ok = a == b
    from fdsim.harness import I2sRunSpec, run_i2s_scenario
    i2s_spec = I2sRunSpec(bus=BusConfig(BusMode.TDM_DSP, 8, 32), periods=4)
    c = run_i2s_scenario(i2s_spec, seed=2).to_json().encode()
    d = run_i2s_scenario(i2s_spec, seed=2).to_json().encode()
    ok &= c == d
    report("9 determinism (byte-identical machine reports)", ok)
